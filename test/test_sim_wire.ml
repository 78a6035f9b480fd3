(* Sim-vs-wire differential: one seeded scenario run twice through the
   same protocol cores — once as an I3.Dynamic fleet with I3.Host end
   hosts on the simulated network, once as three in-process I3.Engine
   instances, each driven by a Transport.Driver over its own loopback
   Transport.Udp socket, with a forked child process as the
   Transport.Client end host.  Both runs must deliver the same payloads
   and hold every inserted trigger at its responsible server.

   Scenario: three servers, one rendezvous trigger (id -> host) and one
   two-id chain (head -> [tail], tail -> host); one packet to the
   rendezvous id and one to the chain head.  It runs under two server
   configs: challenges off, and [challenge_hosts] on, where every
   trigger pointing at the host draws a challenge the host must answer
   (Sec. IV-J3) before its insert is acked.

   Where loopback UDP or fork is unavailable (sandboxes) the wire half
   skips, as test_interop does. *)

let seed = 17
let name s = Id.name_hash (Printf.sprintf "sim-wire-%d-%s" seed s)
let rendezvous = name "rendezvous"
let chain_head = name "chain-head"
let chain_tail = name "chain-tail"

(* (id, stack) bindings the host keeps; [host] is the trigger target. *)
let bindings host =
  [
    (rendezvous, [ I3.Packet.Saddr host ]);
    (chain_head, [ I3.Packet.Sid chain_tail ]);
    (chain_tail, [ I3.Packet.Saddr host ]);
  ]

let ids = [ rendezvous; chain_head; chain_tail ]
let sends = [ (rendezvous, "rendezvous"); (chain_head, "chain") ]
let expected = List.sort compare (List.map snd sends)

(* --- through the simulated fleet --- *)

let run_sim server_config =
  let d =
    I3.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed ~server_config ()
  in
  for site = 0 to 2 do
    ignore (I3.Dynamic.add_server d ~site ());
    I3.Dynamic.run_for d 2_000.
  done;
  I3.Dynamic.run_for d 30_000.;
  let recv = I3.Dynamic.new_host d () in
  let send = I3.Dynamic.new_host d () in
  let got = ref [] in
  I3.Host.on_receive recv (fun ~stack:_ ~payload -> got := payload :: !got);
  List.iter
    (fun (id, stack) ->
      match stack with
      | [ I3.Packet.Saddr _ ] -> I3.Host.insert_trigger recv id
      | stack -> I3.Host.insert_stack_trigger recv id stack)
    (bindings (I3.Host.addr recv));
  I3.Dynamic.run_for d 3_000.;
  List.iter (fun (id, payload) -> I3.Host.send send id payload) sends;
  I3.Dynamic.run_for d 3_000.;
  (List.sort compare !got, Eval.Recovery.triggers_conserved d [ recv ])

(* --- through engines on loopback UDP --- *)

let fast_chord =
  {
    Chord.Protocol.default_config with
    stabilize_period = 100.;
    fix_fingers_period = 200.;
    rpc_timeout = 50.;
  }

type node = {
  udp : Transport.Udp.t;
  driver : Transport.Driver.t;
  backlog : (int * string) Queue.t;
}

let start = Unix.gettimeofday ()
let clock () = (Unix.gettimeofday () -. start) *. 1000.

let make_node ~server_config ~i ~join =
  let udp = Transport.Udp.create () in
  let addr = Transport.Udp.local_addr udp in
  let engine =
    I3.Engine.create ~seed:(seed + i) ~addr
      ~id:(Id.routing_key (name (Printf.sprintf "server-%d" i)))
      ~join ~config:server_config ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ()) ~now:(clock ()) ()
  in
  let backlog = Queue.create () in
  Transport.Udp.set_handler udp (fun ~src bytes -> Queue.add (src, bytes) backlog);
  let driver =
    Transport.Driver.create ~metrics:(Obs.Metrics.create ())
      ~send:(fun ~dst bytes -> Transport.Udp.send udp ~dst bytes)
      engine
  in
  Transport.Driver.tick driver ~now:(clock ());
  { udp; driver; backlog }

(* Run every node's receive-step-tick turn until [until] holds or
   [budget_ms] of wall time passed. *)
let pump nodes ~budget_ms until =
  let deadline = clock () +. budget_ms in
  let rec go () =
    if until () then true
    else if clock () > deadline then false
    else begin
      List.iter
        (fun n ->
          ignore (Transport.Udp.wait n.udp ~timeout:0.);
          let now = clock () in
          let datagrams = List.of_seq (Queue.to_seq n.backlog) in
          Queue.clear n.backlog;
          Transport.Driver.on_datagrams n.driver ~now datagrams;
          match Transport.Driver.next_due n.driver with
          | Some due when due <= now -> Transport.Driver.tick n.driver ~now
          | _ -> ())
        nodes;
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let engines nodes = List.map (fun n -> Transport.Driver.engine n.driver) nodes

(* Every node's successor is the next id clockwise. *)
let ring_formed nodes =
  let sorted =
    List.sort (fun a b -> Id.compare (I3.Engine.id a) (I3.Engine.id b))
      (engines nodes)
  in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  List.for_all
    (fun i ->
      match Chord.Protocol.successor (I3.Engine.chord arr.(i)) with
      | Some p -> p.Chord.Protocol.addr = I3.Engine.addr arr.((i + 1) mod n)
      | None -> false)
    (List.init n Fun.id)

(* The Eval.Recovery invariant over engines: some server claims each
   id, and every claimant stores the trigger. *)
let conserved nodes ids =
  List.for_all
    (fun id ->
      match
        List.filter
          (fun e -> Chord.Protocol.owns (I3.Engine.chord e) (Id.routing_key id))
          (engines nodes)
      with
      | [] -> false
      | owners ->
          List.for_all
            (fun e ->
              I3.Trigger_table.find_matches
                (I3.Server.triggers (I3.Engine.server e))
                ~now:(I3.Engine.now e) id
              <> [])
            owners)
    ids

(* The end host, in a forked child: insert every binding through the
   blocking [Client.insert], send the packets, and write one line per
   delivered payload (or a "gave up" line) to [out]. *)
let run_client ~gateway out =
  let udp = Transport.Udp.create () in
  let client =
    Transport.Client.create ~metrics:(Obs.Metrics.create ())
      ~rng:(Rng.of_int seed) ~gateways:[ gateway ] udp
  in
  let host = Transport.Client.local_addr client in
  let got = ref [] in
  Transport.Client.on_deliver client (fun ~stack:_ ~payload ->
      got := payload :: !got);
  let lines =
    List.concat_map
      (fun (id, stack) ->
        match
          Transport.Client.insert client
            (I3.Trigger.make ~id ~stack ~owner:host)
        with
        | `Acked -> []
        | `Gave_up -> [ "gave up" ])
      (bindings host)
  in
  List.iter
    (fun (id, payload) ->
      Transport.Client.send_data client ~stack:[ I3.Packet.Sid id ] ~payload ())
    sends;
  let deadline = clock () +. 2_000. in
  while List.length !got < List.length sends && clock () < deadline do
    ignore (Transport.Client.wait client ~timeout:0.01);
    Transport.Client.poll client
  done;
  List.iter (fun l -> output_string out (l ^ "\n")) (lines @ !got)

let run_wire server_config =
  match Transport.Udp.create () with
  | exception Unix.Unix_error _ -> None
  | probe -> (
      Transport.Udp.close probe;
      let first = make_node ~server_config ~i:0 ~join:[] in
      let gateway = Transport.Udp.local_addr first.udp in
      let nodes =
        first
        :: List.init 2 (fun i ->
               make_node ~server_config ~i:(i + 1) ~join:[ gateway ])
      in
      let close_nodes () =
        List.iter (fun n -> Transport.Udp.close n.udp) nodes
      in
      if not (pump nodes ~budget_ms:10_000. (fun () -> ring_formed nodes)) then
        Alcotest.fail "loopback ring did not form within 10 s";
      let rd, wr = Unix.pipe () in
      match Unix.fork () with
      | exception Unix.Unix_error _ ->
          close_nodes ();
          None
      | 0 ->
          Unix.close rd;
          let out = Unix.out_channel_of_descr wr in
          (try run_client ~gateway out
           with e -> output_string out (Printexc.to_string e ^ "\n"));
          close_out_noerr out;
          Unix._exit 0
      | pid ->
          Unix.close wr;
          let exited () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> false
            | _ -> true
          in
          if not (pump nodes ~budget_ms:20_000. exited) then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          end;
          let inc = Unix.in_channel_of_descr rd in
          let lines = In_channel.input_lines inc in
          close_in inc;
          let result = (List.sort compare lines, conserved nodes ids) in
          close_nodes ();
          Some result)

let test_differential server_config () =
  let sim_got, sim_conserved = run_sim server_config in
  Alcotest.(check (list string)) "sim delivers every payload" expected sim_got;
  Alcotest.(check bool) "sim conserves triggers" true sim_conserved;
  match run_wire server_config with
  | None -> print_endline "SKIP sim-vs-wire: loopback UDP or fork unavailable"
  | Some (wire_got, wire_conserved) ->
      Alcotest.(check (list string)) "wire delivers what sim delivers" sim_got
        wire_got;
      Alcotest.(check bool) "wire conserves triggers" true wire_conserved

let () =
  Alcotest.run "sim-wire"
    [
      ( "differential",
        [
          Alcotest.test_case "same scenario, same deliveries" `Slow
            (test_differential I3.Server.default_config);
          Alcotest.test_case "same deliveries under host challenges" `Slow
            (test_differential
               { I3.Server.default_config with challenge_hosts = true });
        ] );
    ]
