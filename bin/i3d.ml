(* i3d: an i3 server daemon over real UDP sockets.

   The daemon is a thin effect interpreter: all protocol behaviour —
   Fig. 3 data forwarding, the trigger soft-state store with challenges
   and replication hooks, and a *live* Chord node (join, stabilize,
   fix-fingers, failure detection, partition re-merge) — lives in the
   sans-IO [I3.Engine].  This file owns exactly the things a state
   machine cannot: a socket, a monotonic clock, signals, and the metrics
   flush on exit.  [Transport.Driver] spends the engine's effects into
   the socket and tells the loop how long it may sleep.

   Membership is dynamic: the first daemon bootstraps a fresh ring, and
   every later one is pointed at any live member with [--join] — it
   probes the contact by address, learns its identity from the State
   reply, and stabilization does the rest.  Node identities are
   [Id.routing_key (Id.name_hash "host:port")], so a restarted daemon
   reclaims its arc and ownership is computable from the member list
   alone (which is how the cluster harness picks the responsible daemon
   for a trigger).

   Both protocols share the one socket: frames are told apart by the
   wire kind byte ([I3.Engine.decode]).  Undecodable datagrams count in
   [wire.decode_errors] — the invariant the chaos harness pins at zero.

   Usage:
     i3d --host 127.0.0.1 --port 4001                     # first node
     i3d --host 127.0.0.1 --port 4002 \
         --join 127.0.0.1:4001 \
         [--stabilize-ms 2000] [--rpc-timeout-ms 500] \
         [--metrics-out /tmp/i3d-4002-metrics.json]

   The daemon prints "READY <host:port>" on stdout once bound, and on
   SIGTERM/SIGINT flushes its metrics registry as JSON lines to
   [--metrics-out] (or stderr) so no sample is lost to process death. *)

let usage =
  "i3d --host HOST --port PORT [--join HOST:PORT,...] [--stabilize-ms N] \
   [--rpc-timeout-ms N] [--metrics-out PATH] [--metrics-flush-ms N] \
   [--loss P] [--fault-seed N]"

let host = ref "127.0.0.1"
let port = ref 0
let join = ref ""
let stabilize_ms = ref 2_000.
let rpc_timeout_ms = ref 500.
let metrics_out = ref ""
let metrics_flush_ms = ref 0.
let loss = ref 0.
let fault_seed = ref 0
let verbose = ref false

let args =
  [
    ("--host", Arg.Set_string host, "bind address (default 127.0.0.1)");
    ("--port", Arg.Set_int port, "UDP port (required)");
    ( "--join",
      Arg.Set_string join,
      "comma-separated host:port contacts to join through (none: bootstrap \
       a fresh ring)" );
    ( "--stabilize-ms",
      Arg.Set_float stabilize_ms,
      "Chord stabilization period in ms (default 2000; paper: 30000)" );
    ( "--rpc-timeout-ms",
      Arg.Set_float rpc_timeout_ms,
      "Chord RPC timeout in ms (default 500)" );
    ( "--metrics-out",
      Arg.Set_string metrics_out,
      "write the exit metrics dump (JSON lines) here instead of stderr" );
    ( "--metrics-flush-ms",
      Arg.Set_float metrics_flush_ms,
      "also append a marker-delimited snapshot generation to --metrics-out \
       every N ms, so a SIGKILL'd daemon leaves recent samples (default 0: \
       exit dump only)" );
    ( "--loss",
      Arg.Set_float loss,
      "drop this fraction of the daemon's own sends, seeded by \
       --fault-seed (default 0: faults off).  Unlike the harness-side \
       Faulty client wrapper, this injects loss inside the daemon, so \
       server->server Chord RPCs and replica pushes face weather too" );
    ( "--fault-seed",
      Arg.Set_int fault_seed,
      "RNG seed for --loss decisions (default: derived from --port), so \
       a chaos run replays bit-for-bit" );
    ("-v", Arg.Set verbose, "log effects to stderr");
  ]

let log fmt =
  if !verbose then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let addr_of_name name =
  match String.index_opt name ':' with
  | None -> failwith (Printf.sprintf "bad peer %S (want host:port)" name)
  | Some i -> (
      let h = String.sub name 0 i in
      let p = String.sub name (i + 1) (String.length name - i - 1) in
      match (Transport.Udp.ip_of_string h, int_of_string_opt p) with
      | Some ip, Some port when port > 0 && port < 0x10000 ->
          Transport.Udp.pack ~ip ~port
      | _ -> failwith (Printf.sprintf "bad peer %S (want ipv4:port)" name))

(* The receive loop runs until a shutdown signal flips this; the handler
   does nothing else, so the loop always finishes the frame in flight
   before exiting. *)
let running = ref true

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !port = 0 then begin
    prerr_endline usage;
    exit 2
  end;
  let self_name = Printf.sprintf "%s:%d" !host !port in
  let self_addr = addr_of_name self_name in
  let started = Monotonic_clock.now () in
  (* The engine is sans-IO: it reads no clock, so the daemon stamps
     every step with ms since process start (the engine's virtual wheel
     starts at 0).  The clock is monotonic: a wall-clock step must not
     freeze the engine's timers or age its soft state. *)
  let elapsed_ms () =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) started) /. 1e6
  in
  let registry = Obs.Metrics.default in
  let labels = [ ("instance", self_name) ] in
  let g_triggers = Obs.Metrics.gauge registry ~labels "i3d.triggers" in
  let join_addrs =
    if !join = "" then []
    else
      String.split_on_char ',' !join
      |> List.map addr_of_name
      |> List.filter (fun a -> a <> self_addr)
  in
  let chord_config =
    {
      Chord.Protocol.default_config with
      Chord.Protocol.stabilize_period = !stabilize_ms;
      fix_fingers_period = Float.max 1. (!stabilize_ms /. 2.);
      fingers_per_round = 64;
      rpc_timeout = !rpc_timeout_ms;
    }
  in
  (* Hop events are stamped with the port as the topology site: unique
     per daemon on one host, so cross-process assembly ([Obs.Trace
     .assemble] over wire-drained rings) can tell the hops apart. *)
  let tracer = Obs.Trace.create () in
  let engine =
    I3.Engine.create ~seed:(!port + 1) ~addr:self_addr
      ~id:(Id.routing_key (Id.name_hash self_name))
      ~join:join_addrs ~chord_config ~metrics:registry ~tracer ~site:!port ()
  in
  let udp = Transport.Udp.create ~host:!host ~port:!port () in
  (* Send-side fault injection (ROADMAP item 5's last gap): with --loss
     the daemon's OWN sends — Chord RPCs, replica pushes, forwarded data
     — pass through the same seeded Faulty decorator the harness client
     uses, so the whole mesh faces weather, not just the client edge.
     Receive stays clean: dropping a datagram on either side of the wire
     is the same network. *)
  let faulty =
    if !loss <= 0. then None
    else begin
      let seed = if !fault_seed <> 0 then !fault_seed else !port + 0x5eed in
      let f =
        Transport.Faulty.create ~metrics:registry ~rng:(Rng.of_int seed)
          (Transport.Faulty.of_udp_lower udp)
      in
      Transport.Faulty.apply f (Faults.Loss !loss);
      f |> Option.some
    end
  in
  let raw_send ~dst bytes =
    match faulty with
    | Some f -> Transport.Faulty.send f ~dst bytes
    | None -> Transport.Udp.send udp ~dst bytes
  in
  let driver =
    Transport.Driver.create ~metrics:registry ~instance:self_name
      ~send:raw_send engine
  in
  if !verbose then
    Transport.Driver.on_effects driver
      (List.iter (fun eff ->
           match eff with
           | I3.Engine.Send (dst, _) -> log "send i3 -> %d" dst
           | I3.Engine.Chord_send (dst, _) -> log "send chord -> %d" dst
           | I3.Engine.Deliver { dst; _ } -> log "deliver -> %d" dst
           | I3.Engine.Set_timer _ -> ()));
  (* The receive handler only enqueues: the loop below drains the whole
     backlog through one batched engine step ([Driver.on_datagrams]), so
     a burst of datagrams pays the engine's timer/metrics work once. *)
  let backlog : (int * string) Queue.t = Queue.create () in
  Transport.Udp.set_handler udp (fun ~src bytes ->
      Queue.add (src, bytes) backlog);
  let drain_backlog ~now =
    if not (Queue.is_empty backlog) then begin
      let datagrams = List.of_seq (Queue.to_seq backlog) in
      Queue.clear backlog;
      Transport.Driver.on_datagrams driver ~now datagrams
    end
  in

  (* Graceful shutdown: the signal handler only flips a flag; the loop
     below finishes dispatching the current datagram, then falls through
     to the metrics flush.  SIGTERM (supervisor stop) and SIGINT (^C)
     behave identically; SIGKILL is the chaos case and by design leaves
     nothing behind — that is what the soft-state refresh recovers. *)
  let stop _ = running := false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);

  (* Periodic flush: append one marker-delimited snapshot generation to
     the metrics file, so a SIGKILL'd daemon (the chaos case, which the
     exit dump by definition misses) still leaves samples no older than
     one flush interval.  The first generation truncates — a respawned
     daemon starts its file over rather than mixing incarnations — and
     readers ([Harness.Cluster]) use only the last generation, so
     counters are never double-summed. *)
  let flushed_once = ref false in
  let flush_generation ~now =
    Obs.Metrics.set g_triggers
      (float_of_int
         (I3.Trigger_table.size (I3.Server.triggers (I3.Engine.server engine))));
    let samples = Obs.Metrics.snapshot registry in
    let marker =
      Json.Obj
        [
          ("marker", Json.String "flush");
          ("at", Json.Float now);
          ("instance", Json.String self_name);
        ]
    in
    Json.lines_to_file ~append:!flushed_once ~path:!metrics_out
      (marker :: List.map Obs.Sink.sample_to_json samples);
    flushed_once := true;
    samples
  in
  let flush_period =
    if !metrics_flush_ms > 0. && !metrics_out <> "" then Some !metrics_flush_ms
    else None
  in
  let next_flush = ref (match flush_period with Some p -> p | None -> infinity) in

  Printf.printf "READY %s\n%!" self_name;
  (* One loop turn: sleep until the socket is readable or the next
     engine or flush deadline, read the clock once, then spend the turn
     at that instant.  The sleep is computed from the previous turn's
     clock reading, so a turn wakes at most one turn's work late. *)
  let last_now = ref (elapsed_ms ()) in
  while !running do
    let timeout = Transport.Driver.timeout driver ~now:!last_now ~cap:0.25 in
    (* Wake no later than the flush deadline, whatever the engine's
       timers say. *)
    let timeout =
      Float.min timeout (Float.max 0. ((!next_flush -. !last_now) /. 1000.))
    in
    (* [wait] blocks until the socket is readable, then drains every
       queued datagram into the backlog.  select() returns EINTR when a
       signal lands mid-wait; treat it as an empty wait so the flag
       check decides. *)
    (match Transport.Udp.wait udp ~timeout with
    | (_ : bool) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let now = elapsed_ms () in
    last_now := now;
    (* Step the engine once with the whole burst.  That step already
       runs the timer wheel up to [now], so a separate [Tick] is only
       needed when a deadline is due and no frame arrived to fire it. *)
    drain_backlog ~now;
    Option.iter (fun f -> Transport.Faulty.poll f ~now) faulty;
    (match Transport.Driver.next_due driver with
    | Some due when due <= now -> Transport.Driver.tick driver ~now
    | _ -> ());
    match flush_period with
    | Some period when now >= !next_flush ->
        ignore (flush_generation ~now);
        next_flush := now +. period
    | _ -> ()
  done;
  Transport.Udp.close udp;
  (* Final generation: same marker convention, so the exit dump is just
     the last (and freshest) generation in the file. *)
  if !metrics_out <> "" then begin
    let samples = flush_generation ~now:(elapsed_ms ()) in
    log "i3d %s: clean shutdown (%d samples flushed)" self_name
      (List.length samples)
  end
  else begin
    Obs.Metrics.set g_triggers
      (float_of_int
         (I3.Trigger_table.size (I3.Server.triggers (I3.Engine.server engine))));
    let samples = Obs.Metrics.snapshot registry in
    List.iter
      (fun s -> prerr_endline (Json.to_string (Obs.Sink.sample_to_json s)))
      samples;
    log "i3d %s: clean shutdown (%d samples flushed)" self_name
      (List.length samples)
  end
