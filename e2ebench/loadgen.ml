(* The load generator: one non-blocking UDP socket, no threads.

   It installs the workload's triggers, then drives a daemon through a
   closed phase (a fixed number of data packets in flight) and an open
   phase (data packets due on a fixed schedule), with the refresh Insert
   stream running beside both.  Every Deliver and Insert_ack that comes
   back is checked ([Check]) and settled against its op ([Ops]). *)

module L = Wire.Layout

type t = {
  w : Workload.t;
  sock : Unix.file_descr;
  gen : int;  (** this socket's packed address, the triggers' target *)
  mutable daemon : Unix.sockaddr;
  ops : Ops.t;
  pending_insert : int array;  (** per trigger: its refresh op, or -1 *)
  trigger_index : I3.Trigger.t -> int option;
  tag_index : Id.t option -> int option;
  rbuf : Bytes.t;
  frame : Bytes.t;  (** data-frame template: id and payload patched per op *)
  id_off : int;
  payload_off : int;
  id_rng : Rng.t;
  mutable refresh_cursor : int;
  mutable delivers : int;  (** Deliver frames received *)
  mutable acks : int;  (** Insert_acks received *)
  mutable corrupt : int;  (** frames carrying bytes no op sent *)
  mutable first_corrupt : string;
  mutable latencies : Stats.Buf.t option;  (** collect while Some *)
  mutable lateness : Stats.Buf.t option;
  mutable stats_reply : (int * Obs.Metrics.sample list) option;
  mutable nonce : int;  (** of the last Stats_request *)
}

let deadline_ns = 1_000_000_000

let create w =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (try Unix.setsockopt_int sock Unix.SO_RCVBUF (4 lsl 20)
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_int sock Unix.SO_SNDBUF (4 lsl 20)
   with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock sock;
  let gen =
    match Transport.Udp.addr_of_sockaddr (Unix.getsockname sock) with
    | Some a -> a
    | None -> failwith "generator socket has no IPv4 address"
  in
  let spec = w.Workload.spec in
  let template =
    I3.Packet.encode
      (I3.Packet.make
         ~stack:[ I3.Packet.Sid w.Workload.ids.(0) ]
         ~payload:(String.make spec.Workload.payload '\000')
         ())
  in
  let id_off = L.header_bytes + 1 in
  let payload_off = String.length template - spec.Workload.payload in
  if String.sub template id_off L.id_bytes <> Id.to_raw_string w.Workload.ids.(0)
  then failwith "data frame layout: identifier not where expected";
  {
    w;
    sock;
    gen;
    daemon = Unix.ADDR_INET (Unix.inet_addr_loopback, 0);
    ops = Ops.create ~cap:(1 lsl 17) ~deadline_ns;
    pending_insert = Array.make (Workload.triggers spec) (-1);
    trigger_index = Workload.trigger_index w;
    tag_index = Workload.tag_index w;
    rbuf = Bytes.create L.max_datagram;
    frame = Bytes.of_string template;
    id_off;
    payload_off;
    id_rng = Workload.id_stream w;
    refresh_cursor = 0;
    delivers = 0;
    acks = 0;
    corrupt = 0;
    first_corrupt = "";
    latencies = None;
    lateness = None;
    stats_reply = None;
    nonce = 0;
  }

let close t = Unix.close t.sock
let set_daemon t ~port = t.daemon <- Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let rec send_bytes t buf len =
  match Unix.sendto t.sock buf 0 len [] t.daemon with
  | (_ : int) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      (* Socket buffer full: wait until it drains rather than drop. *)
      ignore (Unix.select [] [ t.sock ] [] 0.01);
      send_bytes t buf len

let send_string t s = send_bytes t (Bytes.unsafe_of_string s) (String.length s)

(* One data packet to a uniformly drawn resident identifier. *)
let send_data t ~now ~due =
  let seq = Ops.start t.ops ~now ~due ~legs:t.w.Workload.spec.Workload.fanout ~data:true in
  let id = t.w.Workload.ids.(Workload.next_id t.w t.id_rng) in
  Bytes.blit_string (Id.to_raw_string id) 0 t.frame t.id_off L.id_bytes;
  Check.fill t.w.Workload.check t.frame ~off:t.payload_off ~seq;
  (match t.lateness with
  | Some b -> Stats.Buf.add b (Clock.ns () - due)
  | None -> ());
  send_bytes t t.frame (Bytes.length t.frame)

(* Insert (or refresh) trigger [i], as an op completed by its ack. *)
let send_insert t ~now ~due i =
  let seq = Ops.start t.ops ~now ~due ~legs:1 ~data:false in
  t.pending_insert.(i) <- seq;
  send_string t
    (I3.Codec.encode
       (I3.Message.Insert { trigger = Workload.trigger t.w ~gen:t.gen i; token = None }))

let next_refreshed t =
  let order = t.w.Workload.refresh_order in
  let i = order.(t.refresh_cursor) in
  t.refresh_cursor <- (t.refresh_cursor + 1) mod Array.length order;
  i

let note_corrupt t why =
  t.corrupt <- t.corrupt + 1;
  if t.first_corrupt = "" then t.first_corrupt <- why

let settle t ~now ~seq ~leg =
  match Ops.leg t.ops ~now ~seq ~leg with
  | Ops.Done lat -> (
      match t.latencies with Some b -> Stats.Buf.add b lat | None -> ())
  | Ops.Partial | Ops.Late | Ops.Duplicate | Ops.Stray -> ()

let on_frame t ~now frame =
  match I3.Codec.decode frame with
  | Ok (I3.Message.Deliver { stack; payload; trace }) -> (
      t.delivers <- t.delivers + 1;
      match
        Check.deliver t.w.Workload.check ~tag_index:t.tag_index ~stack ~payload
          ~trace
      with
      | Check.Leg { seq; leg } -> settle t ~now ~seq ~leg
      | Check.Corrupt { seq; why } ->
          note_corrupt t why;
          Option.iter (fun seq -> Ops.fail t.ops ~seq) seq)
  | Ok (I3.Message.Insert_ack { trigger; _ }) -> (
      t.acks <- t.acks + 1;
      match t.trigger_index trigger with
      | Some i when t.pending_insert.(i) >= 0 ->
          let seq = t.pending_insert.(i) in
          t.pending_insert.(i) <- -1;
          settle t ~now ~seq ~leg:0
      | Some _ -> ()
      | None -> note_corrupt t "ack for a trigger never inserted")
  | Ok (I3.Message.Stats_response { nonce; samples; _ }) ->
      t.stats_reply <- Some (nonce, samples)
  | Ok _ -> note_corrupt t "unexpected message kind"
  | Error e -> note_corrupt t ("undecodable frame: " ^ e)

(* Receive and handle everything queued on the socket; returns how many
   datagrams there were. *)
let drain t =
  let rec go n =
    match Unix.recv t.sock t.rbuf 0 (Bytes.length t.rbuf) [] with
    | len ->
        on_frame t ~now:(Clock.ns ()) (Bytes.sub_string t.rbuf 0 len);
        go (n + 1)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> n
  in
  go 0

let wait_readable t ~timeout_ns =
  if timeout_ns > 0 then
    try ignore (Unix.select [ t.sock ] [] [] (Clock.s_of_ns timeout_ns))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Settle every op still in flight: receive until none is left, or
   until the last has passed its deadline and failed. *)
let quiesce t =
  while Ops.in_flight t.ops > 0 do
    if drain t = 0 then begin
      ignore (Ops.expire t.ops ~now:(Clock.ns ()));
      if Ops.in_flight t.ops > 0 then wait_readable t ~timeout_ns:1_000_000
    end
  done

(* Install every trigger, [window] Inserts in flight; a lost Insert is
   sent again after its deadline.  Returns once all are acknowledged. *)
let install t ~window =
  let n = Workload.triggers t.w.Workload.spec in
  let todo = Queue.create () in
  Array.iter (fun i -> Queue.add i todo) t.w.Workload.refresh_order;
  let goal = Ops.completed t.ops + n in
  let attempts = ref 0 in
  while Ops.completed t.ops < goal do
    while Ops.in_flight t.ops < window && not (Queue.is_empty todo) do
      incr attempts;
      let now = Clock.ns () in
      send_insert t ~now ~due:now (Queue.pop todo)
    done;
    if drain t = 0 then wait_readable t ~timeout_ns:1_000_000;
    if Ops.expire t.ops ~now:(Clock.ns ()) > 0 then
      Array.iteri
        (fun i seq ->
          if seq >= 0 && not (Ops.is_pending t.ops ~seq) then begin
            t.pending_insert.(i) <- -1;
            Queue.add i todo
          end)
        t.pending_insert;
    if !attempts > (2 * n) + 1000 then failwith "trigger installation keeps failing"
  done

(* Snapshot the daemon's registry under [prefix] with a Stats_request,
   outside any timed window. *)
let stats t ~prefix =
  let rec attempt tries =
    if tries = 0 then failwith "the daemon does not answer Stats_request";
    t.nonce <- t.nonce + 1;
    let nonce = t.nonce in
    t.stats_reply <- None;
    send_string t
      (I3.Codec.encode (I3.Message.Stats_request { nonce; prefix; drain = false }));
    let deadline = Clock.ns () + 1_000_000_000 in
    let rec await () =
      match t.stats_reply with
      | Some (n, samples) when n = nonce -> Some samples
      | _ when Clock.ns () > deadline -> None
      | _ ->
          if drain t = 0 then wait_readable t ~timeout_ns:1_000_000;
          await ()
    in
    match await () with Some s -> s | None -> attempt (tries - 1)
  in
  attempt 3

(* A phase is cut into equal time slices, each with its own counts, so
   that a stall of the machine (a virtual CPU taken away for a few ms)
   moves a few slices rather than every reported figure. *)
type slice = {
  secs : float;
  slice_delivers : int;  (** Deliver frames received *)
  slice_ops : int;  (** ops completed *)
  cpu_ns : int;  (** the daemon's CPU time *)
}

type phase = {
  windows : (int * int) list;
      (** (start, settled) in ns: from the first op's due time until the
          last op completed or failed, one pair per stretch measured *)
  attempted : int;
  completed : int;
  failed : int;
  slices : slice array;
  latencies : int array;  (** ns from due time to completion *)
  lateness : int array;  (** ns from due time to send, data packets *)
}

(* Counts at the start of the slice being measured. *)
type slicer = {
  len : int;
  cpu : unit -> int;  (** the daemon's CPU time, ns *)
  mutable next : int;  (** when the slice ends *)
  mutable since : int;
  mutable delivers0 : int;
  mutable ops0 : int;
  mutable cpu0 : int;
  mutable acc : slice list;
}

let slicer (t : t) ~start ~len ~cpu =
  { len; cpu; next = start + len; since = start; delivers0 = t.delivers;
    ops0 = Ops.completed t.ops; cpu0 = cpu (); acc = [] }

let tick_slicer (t : t) sl ~now =
  if now >= sl.next then begin
    let cpu = sl.cpu () and ops = Ops.completed t.ops in
    sl.acc <-
      { secs = Clock.s_of_ns (now - sl.since);
        slice_delivers = t.delivers - sl.delivers0;
        slice_ops = ops - sl.ops0; cpu_ns = cpu - sl.cpu0 }
      :: sl.acc;
    sl.since <- now;
    sl.delivers0 <- t.delivers;
    sl.ops0 <- ops;
    sl.cpu0 <- cpu;
    sl.next <- sl.next + sl.len
  end

let wall_ns p = List.fold_left (fun acc (a, b) -> acc + b - a) 0 p.windows

(* Several stretches of one kind of phase, read as one. *)
let merge ps =
  let cat f = Array.concat (List.map f ps) in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  {
    windows = List.concat_map (fun p -> p.windows) ps;
    attempted = sum (fun p -> p.attempted);
    completed = sum (fun p -> p.completed);
    failed = sum (fun p -> p.failed);
    slices = cat (fun p -> p.slices);
    latencies = cat (fun p -> p.latencies);
    lateness = cat (fun p -> p.lateness);
  }

let refresh_gap_ns t =
  int_of_float (1e9 /. Workload.refresh_rate t.w.Workload.spec)

let finish (t : t) sl ~start ~a0 ~c0 ~f0 ~lat ~late =
  quiesce t;
  {
    windows = [ (start, Clock.ns ()) ];
    attempted = Ops.attempted t.ops - a0;
    completed = Ops.completed t.ops - c0;
    failed = Ops.failed t.ops - f0;
    slices = Array.of_list (List.rev sl.acc);
    latencies = Stats.Buf.to_array lat;
    lateness = Stats.Buf.to_array late;
  }

(* Closed loop: [window] data packets always in flight, the refresh
   stream on its own schedule beside them. *)
let closed t ~duration_ns ~slices ~cpu =
  let window = t.w.Workload.spec.Workload.window in
  let a0 = Ops.attempted t.ops and c0 = Ops.completed t.ops and f0 = Ops.failed t.ops in
  let gap = refresh_gap_ns t in
  let start = Clock.ns () in
  let stop = start + duration_ns in
  let sl = slicer t ~start ~len:(duration_ns / slices) ~cpu in
  let next_refresh = ref start in
  let now = ref start in
  while !now < stop do
    ignore (Ops.expire t.ops ~now:!now);
    while Ops.in_flight_data t.ops < window do
      send_data t ~now:!now ~due:!now
    done;
    while !next_refresh <= !now do
      send_insert t ~now:!now ~due:!next_refresh (next_refreshed t);
      next_refresh := !next_refresh + gap
    done;
    if drain t = 0 then
      wait_readable t ~timeout_ns:(min 1_000_000 (!next_refresh - Clock.ns ()));
    now := Clock.ns ();
    tick_slicer t sl ~now:!now
  done;
  finish t sl ~start ~a0 ~c0 ~f0
    ~lat:(Stats.Buf.create ()) ~late:(Stats.Buf.create ())

(* At most this many ops in flight in the open loop.  When the daemon
   stalls, due ops wait here instead of overflowing its socket buffer;
   they are still timed from their due time, so the stall shows in the
   latencies and in the generator's lateness, not as loss. *)
let open_cap = 256

(* Open loop: data packets due every 1/[rate] s and the refresh stream
   on its own schedule, each op sent once it is due whatever the daemon
   is doing, and timed from its due time.  The generator sleeps only
   when the next op is more than 200 µs away; otherwise it spins, so
   its own lateness stays far below the latencies it reports. *)
let open_loop t ~duration_ns ~slices ~cpu =
  let rate = t.w.Workload.spec.Workload.rate in
  let a0 = Ops.attempted t.ops and c0 = Ops.completed t.ops and f0 = Ops.failed t.ops in
  let gap = refresh_gap_ns t in
  let start = Clock.ns () + 1_000_000 in
  let stop = start + duration_ns in
  let k = ref 0 in
  let data_due () =
    let d = start + int_of_float (float_of_int !k *. 1e9 /. rate) in
    if d < stop then d else max_int
  in
  let next_refresh = ref start in
  let refresh_due () = if !next_refresh < stop then !next_refresh else max_int in
  let lat = Stats.Buf.create () and late = Stats.Buf.create () in
  t.latencies <- Some lat;
  t.lateness <- Some late;
  (* Send every op already due; returns when the next one is due (or
     [now] when the cap holds due ops back). *)
  let rec send_due now =
    let dd = data_due () and rd = refresh_due () in
    let due = min dd rd in
    if due > now then due
    else if Ops.in_flight t.ops >= open_cap then now
    else begin
      if dd <= rd then begin
        send_data t ~now ~due:dd;
        incr k
      end
      else begin
        send_insert t ~now ~due:rd (next_refreshed t);
        next_refresh := !next_refresh + gap
      end;
      send_due now
    end
  in
  let sl = ref None in
  let finished = ref false in
  while not !finished do
    let now = Clock.ns () in
    if !sl = None && now >= start then
      sl := Some (slicer t ~start:now ~len:(duration_ns / slices) ~cpu);
    Option.iter (fun sl -> tick_slicer t sl ~now) !sl;
    ignore (Ops.expire t.ops ~now);
    (* [next] is max_int once every op is sent; the loop still runs to
       [stop] so the last slice closes. *)
    let next = send_due now in
    if next = max_int && now >= stop then finished := true
    else if drain t = 0 then begin
      let idle = min next stop - Clock.ns () in
      if idle > 200_000 then wait_readable t ~timeout_ns:(idle - 100_000)
    end
  done;
  let sl = match !sl with Some sl -> sl | None -> slicer t ~start ~len:1 ~cpu in
  let p = finish t sl ~start ~a0 ~c0 ~f0 ~lat ~late in
  t.latencies <- None;
  t.lateness <- None;
  p
