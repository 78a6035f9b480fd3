(* Seeded fault injection at the send boundary of any byte transport.

   Every datagram handed to [send] gets its fate from the same
   [Faults.Weather] core the simulator's [Net] asks, with the local
   address and the destination standing in for the two sites.  Receive
   is untouched: a dropped reply is just the peer's own faulty send, so
   wrapping each endpoint's sender is enough to model a lossy path end
   to end.

   Delay cannot block a synchronous [send], so delayed datagrams park in
   a due-time heap and leave on the next [flush] — the loop of whoever
   owns the socket calls it, as a userspace qdisc would.  Both take the
   caller's clock, so this module reads none. *)

type delayed = { due : float; dst : int; bytes : string; seq : int }

type t = {
  weather : Faults.Weather.t;
  local : int;
  lower : dst:int -> string -> unit;
  pending : delayed Heap.t;
  mutable seq : int;  (* FIFO tie-break for equal due times *)
  c_sent : Obs.Metrics.counter;
  c_dropped : Faults.Weather.cause -> Obs.Metrics.counter;
  c_duplicated : Obs.Metrics.counter;
  c_delayed : Obs.Metrics.counter;
}

let create ?(metrics = Obs.Metrics.default) ~rng ~local lower =
  let instance = ("instance", "faulty" ^ string_of_int local) in
  let counter ?(labels = []) name =
    Obs.Metrics.counter metrics ~labels:(instance :: labels) name
  in
  let drop cause =
    counter
      ~labels:[ ("cause", Faults.Weather.cause_name cause) ]
      "faulty.dropped"
  in
  let partition = drop `Partition and gray = drop `Gray in
  let burst = drop `Burst and loss = drop `Loss in
  {
    weather = Faults.Weather.create ~rng;
    local;
    lower;
    pending =
      Heap.create ~cmp:(fun a b ->
          match Float.compare a.due b.due with
          | 0 -> Int.compare a.seq b.seq
          | c -> c);
    seq = 0;
    c_sent = counter "faulty.sent";
    c_dropped =
      (function
      | `Partition -> partition
      | `Gray -> gray
      | `Burst -> burst
      | `Loss -> loss);
    c_duplicated = counter "faulty.duplicated";
    c_delayed = counter "faulty.delayed";
  }

let apply t event = Faults.Weather.apply t.weather event

let release t ~now ~dst bytes delay =
  if delay <= 0. then t.lower ~dst bytes
  else begin
    Obs.Metrics.incr t.c_delayed;
    t.seq <- t.seq + 1;
    Heap.add t.pending { due = now +. delay; dst; bytes; seq = t.seq }
  end

let send t ~now ~dst bytes =
  Obs.Metrics.incr t.c_sent;
  match Faults.Weather.decide t.weather ~src_site:t.local ~dst_site:dst with
  | Drop cause -> Obs.Metrics.incr (t.c_dropped cause)
  | Pass { delay; dup_delay } ->
      release t ~now ~dst bytes delay;
      Option.iter
        (fun dup ->
          Obs.Metrics.incr t.c_duplicated;
          release t ~now ~dst bytes dup)
        dup_delay

let flush t ~now =
  let rec go n =
    match Heap.peek t.pending with
    | Some d when d.due <= now ->
        ignore (Heap.pop t.pending);
        t.lower ~dst:d.dst d.bytes;
        go (n + 1)
    | _ -> n
  in
  go 0

let pending t = Heap.size t.pending
