(* Tests for I3.Dynamic: i3 servers forwarding from their own live
   Chord.Protocol state — the paper's actual prototype architecture
   (Sec. V-C), with self-organization (Sec. IV-D), incremental deployment
   (Sec. IV-H) and failure recovery (Sec. IV-C) all emergent rather than
   oracle-driven. *)

(* Private registry per deployment: parallel test binaries must not
   share Obs.Metrics.default. *)
let build ?(seed = 5) ?(n = 12) () =
  let d = I3.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed () in
  for _ = 1 to n do
    ignore (I3.Dynamic.add_server d ());
    I3.Dynamic.run_for d 3_000.
  done;
  I3.Dynamic.run_for d 120_000.;
  d

let collect host =
  let log = ref [] in
  I3.Host.on_receive host (fun ~stack:_ ~payload -> log := payload :: !log);
  fun () -> List.rev !log

let test_single_owner_invariant () =
  let d = build () in
  let rng = Rng.create 11L in
  for _ = 1 to 60 do
    let id = Id.random rng in
    Alcotest.(check int) "exactly one owner" 1
      (List.length (I3.Dynamic.owners_of d id))
  done

let test_rendezvous () =
  let d = build ~seed:6 () in
  let recv = I3.Dynamic.new_host d () in
  let send = I3.Dynamic.new_host d () in
  let got = collect recv in
  let id = I3.Host.new_private_id recv in
  I3.Host.insert_trigger recv id;
  I3.Dynamic.run_for d 2_000.;
  I3.Host.send send id "hello";
  I3.Dynamic.run_for d 2_000.;
  Alcotest.(check (list string)) "delivered" [ "hello" ] (got ())

let test_sender_cache_over_dynamic_ring () =
  let d = build ~seed:7 () in
  let recv = I3.Dynamic.new_host d () in
  let send = I3.Dynamic.new_host d () in
  let (_ : unit -> string list) = collect recv in
  let id = I3.Host.new_private_id recv in
  I3.Host.insert_trigger recv id;
  I3.Dynamic.run_for d 2_000.;
  I3.Host.send send id "warm";
  I3.Dynamic.run_for d 2_000.;
  (match (I3.Host.cached_server_for send id, I3.Dynamic.owners_of d id) with
  | Some cached, [ owner ] ->
      Alcotest.(check int) "cached the live owner" (I3.Server.addr owner) cached
  | None, _ -> Alcotest.fail "no cache entry"
  | Some _, owners ->
      Alcotest.fail (Printf.sprintf "%d owners" (List.length owners)));
  let forwarded () =
    List.fold_left
      (fun acc s -> acc + (I3.Server.stats s).I3.Server.data_forwarded)
      0 (I3.Dynamic.servers d)
  in
  let before = forwarded () in
  I3.Host.send send id "direct";
  I3.Dynamic.run_for d 2_000.;
  Alcotest.(check int) "direct hit, no overlay hops" before (forwarded ())

let test_failure_heals_and_recovers () =
  let d = build ~seed:8 () in
  let recv = I3.Dynamic.new_host d () in
  let send = I3.Dynamic.new_host d () in
  let got = collect recv in
  let id = I3.Host.new_private_id recv in
  I3.Host.insert_trigger recv id;
  I3.Dynamic.run_for d 2_000.;
  (match I3.Dynamic.owners_of d id with
  | [ owner ] -> I3.Dynamic.kill_server d owner
  | l -> Alcotest.fail (Printf.sprintf "%d owners before kill" (List.length l)));
  (* suspicion timeouts fire, the ring heals, host refresh re-inserts *)
  I3.Dynamic.run_for d 100_000.;
  Alcotest.(check int) "single owner again" 1
    (List.length (I3.Dynamic.owners_of d id));
  I3.Host.send send id "recovered";
  I3.Dynamic.run_for d 3_000.;
  Alcotest.(check (list string)) "traffic resumes" [ "recovered" ] (got ())

let test_incremental_join_takes_over_arc () =
  let d = build ~seed:9 ~n:8 () in
  let recv = I3.Dynamic.new_host d () in
  let got = collect recv in
  let id = I3.Host.new_private_id recv in
  I3.Host.insert_trigger recv id;
  I3.Dynamic.run_for d 2_000.;
  let owner_before =
    match I3.Dynamic.owners_of d id with
    | [ o ] -> o
    | _ -> Alcotest.fail "expected one owner"
  in
  (* grow the ring; after convergence + a refresh the trigger lives at
     whoever now owns the arc, and traffic still flows *)
  let newcomers = List.init 6 (fun _ -> I3.Dynamic.add_server d ()) in
  I3.Dynamic.run_for d 160_000.;
  let owner_after =
    match I3.Dynamic.owners_of d id with
    | [ o ] -> o
    | l -> Alcotest.fail (Printf.sprintf "%d owners after joins" (List.length l))
  in
  Alcotest.(check bool) "trigger stored at the current owner" true
    (I3.Trigger_table.find_matches
       (I3.Server.triggers owner_after)
       ~now:(I3.Dynamic.now d) id
    <> []);
  let send = I3.Dynamic.new_host d () in
  I3.Host.send send id "post-join";
  I3.Dynamic.run_for d 3_000.;
  Alcotest.(check (list string)) "delivered" [ "post-join" ] (got ());
  ignore owner_before;
  ignore newcomers

let test_multicast_over_dynamic_ring () =
  let d = build ~seed:10 () in
  let members = List.init 4 (fun _ -> I3.Dynamic.new_host d ()) in
  let logs = List.map collect members in
  let send = I3.Dynamic.new_host d () in
  let g = Id.random (Rng.create 3L) in
  List.iter (fun m -> I3.Host.insert_trigger m g) members;
  I3.Dynamic.run_for d 2_000.;
  I3.Host.send send g "fanout";
  I3.Dynamic.run_for d 2_000.;
  List.iter
    (fun log -> Alcotest.(check (list string)) "member got it" [ "fanout" ] (log ()))
    logs

let test_concurrent_joins_converge () =
  let d = I3.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed:12 () in
  ignore (I3.Dynamic.add_server d ());
  I3.Dynamic.run_for d 1_000.;
  (* nine servers join in the same instant *)
  for _ = 1 to 9 do
    ignore (I3.Dynamic.add_server d ())
  done;
  I3.Dynamic.run_for d 300_000.;
  let rng = Rng.create 4L in
  let all_single = ref true in
  for _ = 1 to 40 do
    if List.length (I3.Dynamic.owners_of d (Id.random rng)) <> 1 then
      all_single := false
  done;
  Alcotest.(check bool) "responsibility partitioned" true !all_single

(* --- metrics labels name the server, not the creation order --- *)

let server_labels metrics =
  Obs.Metrics.snapshot ~prefix:"i3." metrics
  |> List.filter_map (fun (s : Obs.Metrics.sample) ->
         List.assoc_opt "instance" s.labels)
  |> List.sort_uniq compare

let test_labels_from_identity () =
  let build () =
    let metrics = Obs.Metrics.create () in
    ignore (I3.Deployment.create ~metrics ~seed:5 ~n_servers:4 ());
    server_labels metrics
  in
  let first = build () in
  Alcotest.(check int) "one label per server" 4 (List.length first);
  Alcotest.(check (list string)) "rebuilding gives the same labels" first
    (build ())

let test_restart_keeps_label () =
  let metrics = Obs.Metrics.create () in
  let d = I3.Dynamic.create ~metrics ~seed:6 () in
  for _ = 1 to 3 do
    ignore (I3.Dynamic.add_server d ());
    I3.Dynamic.run_for d 2_000.
  done;
  let victim = I3.Dynamic.nth_server d 1 in
  let label = I3.Server.instance_label victim in
  I3.Dynamic.kill_server d victim;
  I3.Dynamic.run_for d 5_000.;
  Alcotest.(check bool) "a dead server exports nothing" false
    (List.mem label (server_labels metrics));
  I3.Dynamic.restart_server d victim;
  I3.Dynamic.run_for d 5_000.;
  let again = I3.Dynamic.nth_server d 1 in
  Alcotest.(check bool) "restarted" true (I3.Server.is_alive again);
  Alcotest.(check string) "same label after restart" label
    (I3.Server.instance_label again);
  Alcotest.(check bool) "exports again under it" true
    (List.mem label (server_labels metrics))

let () =
  Alcotest.run "i3-dynamic"
    [
      ( "decentralized i3",
        [
          Alcotest.test_case "single-owner invariant" `Slow test_single_owner_invariant;
          Alcotest.test_case "rendezvous" `Slow test_rendezvous;
          Alcotest.test_case "sender cache" `Slow test_sender_cache_over_dynamic_ring;
          Alcotest.test_case "failure heals + recovers" `Slow test_failure_heals_and_recovers;
          Alcotest.test_case "incremental join" `Slow test_incremental_join_takes_over_arc;
          Alcotest.test_case "multicast" `Slow test_multicast_over_dynamic_ring;
          Alcotest.test_case "concurrent joins" `Slow test_concurrent_joins_converge;
        ] );
      ( "labels",
        [
          Alcotest.test_case "labels from identity" `Quick
            test_labels_from_identity;
          Alcotest.test_case "restart keeps the label" `Quick
            test_restart_keeps_label;
        ] );
    ]
