(* The traced daemon: a forked child of the benchmark hosting the same
   composition as bin/i3d — one [Transport.Udp] socket and one
   [I3.Engine] with i3d's Chord configuration, driven in i3d's loop
   order — with a span recorded around every call into a layer:

     turn   one loop iteration, the parent of every span below
     wait   Udp.wait: block for the first datagram (idle + receive)
     poll   Udp.poll: drain the rest of the socket queue
     decode I3.Engine.decode, once per datagram
     step   I3.Engine.step on the turn's Batch of frames
     encode I3.Engine.encode_effect, once per effect
     send   Udp.send, once per encoded frame
     tick   I3.Engine.step with Tick, once per turn

   Spans go into preallocated off-heap arrays (the GC never scans them)
   with the [Gc.minor_words] allocated inside each.  Recording starts on
   SIGUSR1 and stops on SIGTERM, or earlier if the arrays fill; then the
   child folds the spans into per-layer totals — self time is a span's
   duration minus its children's — and writes them back with its own
   CPU time and GC counts over the same recording.  Time spent blocked
   in [select] is inside the [wait] span; it is the recording's wall
   time minus its CPU time.  The loop deliberately calls the layers
   directly, as i3d's driver does, and bypasses [Transport.Driver]'s
   own counters. *)

module A = Bigarray.Array1

let k_turn = 0
let k_wait = 1
let k_poll = 2
let k_decode = 3
let k_step = 4
let k_encode = 5
let k_send = 6
let k_tick = 7
let kinds = 8

type layer = {
  ns : int;  (** total duration (self time for [turn]: "other") *)
  words : int;  (** minor words allocated inside *)
  calls : int;
  items : int;
      (** datagrams received ([wait], [poll]), events dispatched
          ([step]), frames produced ([encode]) *)
}

(* Everything below covers the recording: from SIGUSR1 until SIGTERM or
   until the span arrays filled. *)
type summary = {
  wall_ns : int;  (** summed duration of the recorded turns *)
  cpu_ns : int;  (** the child's own CPU time *)
  turns : int;
  layers : layer array;  (** indexed by span kind *)
  decode_errors : int;
  minor_words : float;  (** from [Gc.quick_stat] *)
  major_collections : int;
  heap_words : int;  (** at the end *)
  spans : int;
  full : bool;  (** the span arrays filled before SIGTERM *)
}

type spans = {
  kind : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A.t;
  t0 : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  dur : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  parent : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  op : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
      (** the op's sequence number where the call handles one, else the
          [items] count of the call *)
  words : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable n : int;
}

let capacity = 1 lsl 22

let create_spans () =
  let ints () = A.create Bigarray.int Bigarray.c_layout capacity in
  {
    kind = A.create Bigarray.int8_unsigned Bigarray.c_layout capacity;
    t0 = ints ();
    dur = ints ();
    parent = ints ();
    op = ints ();
    words = ints ();
    n = 0;
  }

let set s i ~kind ~t0 ~t1 ~parent ~op ~words =
  A.unsafe_set s.kind i kind;
  A.unsafe_set s.t0 i t0;
  A.unsafe_set s.dur i (t1 - t0);
  A.unsafe_set s.parent i parent;
  A.unsafe_set s.op i op;
  A.unsafe_set s.words i words

(* Fold the recorded spans into per-layer totals. *)
let summarize s =
  let ns = Array.make kinds 0
  and words = Array.make kinds 0
  and calls = Array.make kinds 0
  and items = Array.make kinds 0 in
  let wall = ref 0 and children = ref 0 and turn_dur = ref 0 in
  let close_turn () = ns.(k_turn) <- ns.(k_turn) + (!turn_dur - !children) in
  for i = 0 to s.n - 1 do
    let k = A.get s.kind i and d = A.get s.dur i in
    if k = k_turn then begin
      close_turn ();
      children := 0;
      turn_dur := d;
      wall := !wall + d
    end
    else children := !children + d;
    if k <> k_turn then ns.(k) <- ns.(k) + d;
    words.(k) <- words.(k) + A.get s.words i;
    calls.(k) <- calls.(k) + 1;
    if k = k_wait || k = k_poll || k = k_step || k = k_encode then
      items.(k) <- items.(k) + A.get s.op i
  done;
  close_turn ();
  (* A turn's own words include its children's: keep only its own. *)
  for k = 1 to kinds - 1 do
    words.(k_turn) <- words.(k_turn) - words.(k)
  done;
  ( !wall,
    calls.(k_turn),
    Array.init kinds (fun k ->
        { ns = ns.(k); words = words.(k); calls = calls.(k); items = items.(k) }) )

(* i3d's defaults for a daemon started without flags. *)
let chord_config =
  {
    Chord.Protocol.default_config with
    Chord.Protocol.stabilize_period = 2_000.;
    fix_fingers_period = 1_000.;
    fingers_per_round = 64;
    rpc_timeout = 500.;
  }

let recording = ref false
let running = ref true

(* The sequence number a data frame's payload carries (see [Check]),
   read from the raw datagram without decoding it. *)
let data_seq ~payload bytes =
  let len = String.length bytes in
  if len > Wire.Layout.off_kind
     && Char.code bytes.[Wire.Layout.off_kind] < Wire.Layout.first_kind
     && len >= payload
  then Int64.to_int (String.get_int64_be bytes (len - payload))
  else -1

let deliver_seq = function
  | I3.Engine.Deliver { payload; _ } when String.length payload >= 8 ->
      Int64.to_int (String.get_int64_be payload 0)
  | _ -> -1

(* Run the traced daemon until SIGTERM, then answer on [res] with the
   summary of its recording.  Never returns. *)
let serve ~res ~payload =
  let started = Unix.gettimeofday () in
  let elapsed_ms () = (Unix.gettimeofday () -. started) *. 1000. in
  let udp = Transport.Udp.create ~host:"127.0.0.1" ~port:0 () in
  let addr = Transport.Udp.local_addr udp in
  let port = Transport.Udp.port_of addr in
  let self_name = Printf.sprintf "127.0.0.1:%d" port in
  let engine =
    I3.Engine.create ~seed:(port + 1) ~addr
      ~id:(Id.routing_key (Id.name_hash self_name))
      ~join:[] ~chord_config ~metrics:Obs.Metrics.default
      ~tracer:(Obs.Trace.create ()) ~site:port ()
  in
  let s = create_spans () in
  let backlog : (int * string) Queue.t = Queue.create () in
  let received = ref 0 in
  Transport.Udp.set_handler udp (fun ~src bytes ->
      incr received;
      Queue.add (src, bytes) backlog);
  let next_due = ref None in
  let decode_errors = ref 0 in
  let on = ref false and full = ref false in
  let gc0 = ref (Gc.quick_stat ()) and cpu0 = ref 0 in
  let gc1 = ref !gc0 and cpu1 = ref 0 in
  let stop_recording () =
    on := false;
    gc1 := Gc.quick_stat ();
    cpu1 := Proc.cpu_ns "self"
  in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> recording := true));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> running := false));
  let oc = Unix.out_channel_of_descr res in
  Printf.fprintf oc "READY %d\n%!" port;
  (* One timed call: [f] runs between two clock reads and two
     minor-word reads; [op] may inspect its result. *)
  let timed kind ~parent ~op f =
    if !on && s.n < capacity then begin
      let i = s.n in
      s.n <- i + 1;
      let t0 = Clock.ns () in
      let w0 = Gc.minor_words () in
      let r = f () in
      let w1 = Gc.minor_words () in
      let t1 = Clock.ns () in
      set s i ~kind ~t0 ~t1 ~parent ~op:(op r) ~words:(int_of_float (w1 -. w0));
      r
    end
    else f ()
  in
  let spend ~parent effects =
    List.iter
      (fun eff ->
        match
          timed k_encode ~parent
            ~op:(function Some _ -> 1 | None -> 0)
            (fun () -> I3.Engine.encode_effect eff)
        with
        | Some (dst, bytes) ->
            timed k_send ~parent ~op:(fun () -> deliver_seq eff) (fun () ->
                Transport.Udp.send udp ~dst bytes)
        | None -> (
            match eff with I3.Engine.Set_timer due -> next_due := Some due | _ -> ()))
      effects
  in
  while !running do
    if !recording && not (!on || !full) then begin
      on := true;
      gc0 := Gc.quick_stat ();
      cpu0 := Proc.cpu_ns "self"
    end;
    (* Reserve the turn's slot so its children can name it. *)
    let turn = if !on && s.n < capacity - 4096 then s.n else -1 in
    if turn < 0 && !on then begin
      stop_recording ();
      full := true
    end;
    if turn >= 0 then s.n <- turn + 1;
    let t0 = Clock.ns () and w0 = Gc.minor_words () in
    let now = elapsed_ms () in
    let timeout =
      match !next_due with
      | None -> 0.25
      | Some due -> Float.min 0.25 (Float.max 0. ((due -. now) /. 1000.))
    in
    let r0 = !received in
    timed k_wait ~parent:turn ~op:(fun () -> !received - r0) (fun () ->
        match Transport.Udp.wait udp ~timeout with
        | (_ : bool) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let r1 = !received in
    timed k_poll ~parent:turn ~op:(fun () -> !received - r1) (fun () ->
        Transport.Udp.poll udp ~now:(elapsed_ms ()));
    if not (Queue.is_empty backlog) then begin
      let frames =
        Queue.fold
          (fun acc (src, bytes) ->
            match
              timed k_decode ~parent:turn
                ~op:(fun _ -> data_seq ~payload bytes)
                (fun () -> I3.Engine.decode bytes)
            with
            | Ok frame -> I3.Engine.Frame { src; frame } :: acc
            | Error _ ->
                incr decode_errors;
                acc)
          [] backlog
      in
      Queue.clear backlog;
      let event, n =
        match frames with
        | [] -> (None, 0)
        | [ one ] -> (Some one, 1)
        | many -> (Some (I3.Engine.Batch (List.rev many)), List.length many)
      in
      Option.iter
        (fun ev ->
          let effects =
            timed k_step ~parent:turn ~op:(fun _ -> n) (fun () ->
                I3.Engine.step engine ~now:(elapsed_ms ()) ev)
          in
          spend ~parent:turn effects)
        event
    end;
    let effects =
      timed k_tick ~parent:turn ~op:(fun _ -> 1) (fun () ->
          I3.Engine.step engine ~now:(elapsed_ms ()) I3.Engine.Tick)
    in
    spend ~parent:turn effects;
    if turn >= 0 then begin
      let w1 = Gc.minor_words () in
      set s turn ~kind:k_turn ~t0 ~t1:(Clock.ns ()) ~parent:(-1) ~op:(-1)
        ~words:(int_of_float (w1 -. w0))
    end
  done;
  if !on then stop_recording ();
  Transport.Udp.close udp;
  let wall_ns, turns, layers = summarize s in
  let summary =
    {
      wall_ns;
      cpu_ns = !cpu1 - !cpu0;
      turns;
      layers;
      decode_errors = !decode_errors;
      minor_words = !gc1.Gc.minor_words -. !gc0.Gc.minor_words;
      major_collections = !gc1.Gc.major_collections - !gc0.Gc.major_collections;
      heap_words = !gc1.Gc.heap_words;
      spans = s.n;
      full = !full;
    }
  in
  Marshal.to_channel oc summary [];
  flush oc;
  Unix._exit 0
