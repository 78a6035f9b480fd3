(* Sim-vs-wire differential: one seeded scenario run twice through the
   same protocol core — once as an I3.Dynamic fleet on the simulated
   network, once as three in-process I3.Engine instances, each driven by
   a Transport.Driver over its own loopback Transport.Udp socket, with
   this process acting as the end host.  Both runs must deliver the same
   payloads and hold every inserted trigger at its responsible server.

   Scenario: three servers, one rendezvous trigger (id -> host) and one
   two-id chain (head -> [tail], tail -> host); one packet to the
   rendezvous id and one to the chain head.

   Where loopback UDP is unavailable (sandboxes) the wire half skips, as
   test_interop does. *)

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

let sends = [ (rendezvous, "rendezvous"); (chain_head, "chain") ]
let expected = List.sort compare (List.map snd sends)

(* --- through the simulated fleet --- *)

let run_sim () =
  let d = I3.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed () in
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

let make_node ~i ~join =
  let udp = Transport.Udp.create () in
  let addr = Transport.Udp.local_addr udp in
  let engine =
    I3.Engine.create ~seed:(seed + i) ~addr
      ~id:(Id.routing_key (name (Printf.sprintf "server-%d" i)))
      ~join ~chord_config:fast_chord ~metrics:(Obs.Metrics.create ())
      ~now:(clock ()) ()
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
let pump nodes host ~budget_ms until =
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
      ignore (Transport.Udp.wait host ~timeout:0.002);
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

let run_wire () =
  match Transport.Udp.create () with
  | exception Unix.Unix_error _ -> None
  | host ->
      let first = make_node ~i:0 ~join:[] in
      let contact = [ Transport.Udp.local_addr first.udp ] in
      let nodes =
        first :: List.init 2 (fun i -> make_node ~i:(i + 1) ~join:contact)
      in
      let host_addr = Transport.Udp.local_addr host in
      let got = ref [] in
      Transport.Udp.set_handler host (fun ~src:_ bytes ->
          match I3.Codec.decode bytes with
          | Ok (I3.Message.Deliver { payload; _ }) -> got := payload :: !got
          | _ -> ());
      let to_gateway msg =
        Transport.Udp.send host
          ~dst:(Transport.Udp.local_addr first.udp)
          (I3.Codec.encode msg)
      in
      if not (pump nodes host ~budget_ms:10_000. (fun () -> ring_formed nodes))
      then Alcotest.fail "loopback ring did not form within 10 s";
      List.iter
        (fun (id, stack) ->
          to_gateway
            (I3.Message.Insert
               { trigger = I3.Trigger.make ~id ~stack ~owner:host_addr; token = None }))
        (bindings host_addr);
      let ids = List.map fst (bindings host_addr) in
      ignore (pump nodes host ~budget_ms:2_000. (fun () -> conserved nodes ids));
      List.iter
        (fun (id, payload) ->
          to_gateway
            (I3.Message.Data
               (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload ())))
        sends;
      ignore
        (pump nodes host ~budget_ms:2_000. (fun () ->
             List.length !got >= List.length sends));
      let result = (List.sort compare !got, conserved nodes ids) in
      List.iter (fun n -> Transport.Udp.close n.udp) nodes;
      Transport.Udp.close host;
      Some result

let test_differential () =
  let sim_got, sim_conserved = run_sim () in
  Alcotest.(check (list string)) "sim delivers every payload" expected sim_got;
  Alcotest.(check bool) "sim conserves triggers" true sim_conserved;
  match run_wire () with
  | None -> print_endline "SKIP sim-vs-wire: loopback UDP unavailable"
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
            test_differential;
        ] );
    ]
