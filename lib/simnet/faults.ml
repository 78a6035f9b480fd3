type event =
  | Partition of int list
  | Heal
  | Crash of int
  | Restart of int
  | Gray of { from_site : int; to_site : int }
  | Gray_heal of { from_site : int; to_site : int }
  | Burst_loss of { p_enter : float; p_exit : float; loss_bad : float }
  | Burst_end
  | Loss of float
  | Jitter of float
  | Latency_spike of float
  | Duplicate of float

type schedule = (float * event) list

let pp_event ppf = function
  | Partition sites ->
      Format.fprintf ppf "partition {%s}"
        (String.concat "," (List.map string_of_int sites))
  | Heal -> Format.fprintf ppf "heal"
  | Crash i -> Format.fprintf ppf "crash %d" i
  | Restart i -> Format.fprintf ppf "restart %d" i
  | Gray { from_site; to_site } ->
      Format.fprintf ppf "gray %d->%d" from_site to_site
  | Gray_heal { from_site; to_site } ->
      Format.fprintf ppf "gray-heal %d->%d" from_site to_site
  | Burst_loss { p_enter; p_exit; loss_bad } ->
      Format.fprintf ppf "burst-loss p_enter=%g p_exit=%g loss_bad=%g" p_enter
        p_exit loss_bad
  | Burst_end -> Format.fprintf ppf "burst-end"
  | Loss p -> Format.fprintf ppf "loss %g" p
  | Jitter ms -> Format.fprintf ppf "jitter %gms" ms
  | Latency_spike ms -> Format.fprintf ppf "latency-spike %gms" ms
  | Duplicate p -> Format.fprintf ppf "duplicate %g" p

type driver = event -> unit

let null_driver (_ : event) = ()

(* One validator for every interpreter: a NaN or infinite delay would
   park a datagram (or schedule a delivery) at a time that never comes,
   and [not (p >= 0. && p <= 1.)] is the range check NaN cannot pass. *)
let validate event =
  let prob what p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Faults.%s: need probability in [0, 1]" what)
  and ms what v =
    if not (v >= 0. && v < Float.infinity) then
      invalid_arg (Printf.sprintf "Faults.%s: need finite ms >= 0" what)
  in
  match event with
  | Partition [] -> invalid_arg "Faults.Partition: empty site set"
  | Burst_loss { p_enter; p_exit; loss_bad } ->
      prob "Burst_loss (p_enter)" p_enter;
      prob "Burst_loss (p_exit)" p_exit;
      prob "Burst_loss (loss_bad)" loss_bad
  | Loss p -> prob "Loss" p
  | Duplicate p -> prob "Duplicate" p
  | Jitter v -> ms "Jitter" v
  | Latency_spike v -> ms "Latency_spike" v
  | Partition _ | Heal | Crash _ | Restart _ | Gray _ | Gray_heal _
  | Burst_end ->
      ()

module Weather = struct
  module Int_set = Set.Make (Int)

  type cause = [ `Partition | `Gray | `Burst | `Loss ]

  let cause_name : cause -> string = function
    | `Partition -> "partition"
    | `Gray -> "gray"
    | `Burst -> "burst"
    | `Loss -> "loss"

  type verdict =
    | Drop of cause
    | Pass of { delay : float; dup_delay : float option }

  (* Gilbert–Elliott chain: each send advances it (Good -> Bad with
     [p_enter], Bad -> Good with [p_exit]), then a send in the Bad state
     is lost with [loss_bad].  Mean burst length is 1/p_exit sends. *)
  type burst = {
    p_enter : float;
    p_exit : float;
    loss_bad : float;
    mutable bad : bool;
  }

  type t = {
    rng : Rng.t;
    mutable partitions : Int_set.t list;
    gray : (int * int, unit) Hashtbl.t;  (* directed (src, dst) cuts *)
    mutable burst : burst option;
    mutable loss : float;
    mutable jitter : float;  (* uniform [0, jitter) extra ms *)
    mutable spike : float;  (* fixed extra ms *)
    mutable duplicate : float;
  }

  let create ~rng =
    {
      rng;
      partitions = [];
      gray = Hashtbl.create 8;
      burst = None;
      loss = 0.;
      jitter = 0.;
      spike = 0.;
      duplicate = 0.;
    }

  let apply t event =
    validate event;
    match event with
    | Partition sites -> t.partitions <- Int_set.of_list sites :: t.partitions
    | Heal -> t.partitions <- []
    | Gray { from_site; to_site } ->
        Hashtbl.replace t.gray (from_site, to_site) ()
    | Gray_heal { from_site; to_site } ->
        Hashtbl.remove t.gray (from_site, to_site)
    | Burst_loss { p_enter; p_exit; loss_bad } ->
        t.burst <- Some { p_enter; p_exit; loss_bad; bad = false }
    | Burst_end -> t.burst <- None
    | Loss p -> t.loss <- p
    | Jitter ms -> t.jitter <- ms
    | Latency_spike ms -> t.spike <- ms
    | Duplicate p -> t.duplicate <- p
    | Crash _ | Restart _ -> ()

  let partitioned t sa sb =
    sa <> sb
    && List.exists (fun set -> Int_set.mem sa set <> Int_set.mem sb set)
         t.partitions

  let draw t p = p > 0. && Rng.float t.rng 1. < p

  let burst_drops t =
    match t.burst with
    | None -> false
    | Some b ->
        (* Advance the chain, then draw from the state we landed in.  The
           advance always draws, even at probability 0. *)
        if Rng.float t.rng 1. < if b.bad then b.p_exit else b.p_enter then
          b.bad <- not b.bad;
        b.bad && draw t b.loss_bad

  let extra t =
    t.spike +. if t.jitter > 0. then Rng.float t.rng t.jitter else 0.

  let decide t ~src_site ~dst_site =
    if partitioned t src_site dst_site then Drop `Partition
    else if Hashtbl.mem t.gray (src_site, dst_site) then Drop `Gray
    else if burst_drops t then Drop `Burst
    else if draw t t.loss then Drop `Loss
    else
      let delay = extra t in
      let dup_delay = if draw t t.duplicate then Some (extra t) else None in
      Pass { delay; dup_delay }
end

let sorted schedule =
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) schedule

let install engine driver schedule =
  List.iter
    (fun (time, event) ->
      if time < 0. then invalid_arg "Faults.install: negative event time";
      Engine.schedule engine ~delay:time (fun () -> driver event))
    (sorted schedule)

let churn rng ~victims ~start ~spacing ~downtime =
  if spacing < 0. then invalid_arg "Faults.churn: negative spacing";
  if downtime < 0. then invalid_arg "Faults.churn: negative downtime";
  let order = Array.of_list victims in
  Rng.shuffle rng order;
  let events = ref [] in
  Array.iteri
    (fun i victim ->
      let t_crash = start +. (float_of_int i *. spacing) in
      events := (t_crash +. downtime, Restart victim) :: (t_crash, Crash victim)
                :: !events)
    order;
  sorted !events
