module Udp = Udp
module Faulty = Faulty
module Client = Client
module Driver = Driver

module type S = sig
  type t

  val send : t -> dst:int -> string -> unit
  val set_handler : t -> (src:int -> string -> unit) -> unit
  val local_addr : t -> int
  val poll : t -> now:float -> unit
end

module Sim = struct
  type t = {
    net : string Net.t;
    mutable addr : Net.addr;
    mutable handler : src:int -> string -> unit;
  }

  let attach net ~site =
    let t = { net; addr = -1; handler = (fun ~src:_ _ -> ()) } in
    t.addr <-
      Net.register net ~site (fun ~src bytes -> t.handler ~src bytes);
    t

  let send t ~dst bytes = Net.send t.net ~src:t.addr ~dst bytes
  let set_handler t h = t.handler <- h
  let local_addr t = t.addr

  (* Delivery is the scheduler's job; the endpoint holds no queues. *)
  let poll _ ~now:_ = ()
end

(* Seal the implementations against the signature so drift in any is a
   compile error. *)
module _ : S = Sim
module _ : S = Udp
