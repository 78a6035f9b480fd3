(* Unit tests of the benchmark's own pieces: order statistics, op
   accounting, open-loop timing and the Deliver checker.  No sockets. *)

let feq = Alcotest.float 1e-9

(* --- percentile and quartile selection --- *)

let test_percentile () =
  let a = Array.init 100 (fun i -> i + 1) in
  let sorted = Stats.sorted in
  Alcotest.(check int) "p50 of 1..100" 50 (Stats.percentile a 50.);
  Alcotest.(check int) "p99 of 1..100" 99 (Stats.percentile a 99.);
  Alcotest.(check int) "p100 is the max" 100 (Stats.percentile a 100.);
  Alcotest.(check int) "p1 of 1..100" 1 (Stats.percentile a 1.);
  Alcotest.(check int) "single sample" 7 (Stats.percentile [| 7 |] 99.);
  (* Nearest rank never interpolates: p50 of two samples is the lower. *)
  Alcotest.(check int) "p50 of two" 10 (Stats.percentile (sorted [| 20; 10 |]) 50.);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even averages the middle pair" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..4" [| 4.; 2.; 1.; 3. |] (1.25, 2.5, 3.75);
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two samples (extrapolated, as python does)" [| 1.; 2. |] (0.75, 1.5, 2.25);
  check "1..5" [| 1.; 2.; 3.; 4.; 5. |] (1.5, 3., 4.5);
  Alcotest.check feq "spread of 1..4" ((3.75 -. 1.25) /. 2.5)
    (Stats.spread [| 1.; 2.; 3.; 4. |])

(* --- op accounting --- *)

let test_lost_op_frees_slot () =
  let ops = Ops.create ~cap:16 ~deadline_ns:100 in
  let a = Ops.start ops ~now:0 ~due:0 ~legs:1 ~data:true in
  let b = Ops.start ops ~now:10 ~due:10 ~legs:1 ~data:true in
  Alcotest.(check int) "two in the window" 2 (Ops.in_flight_data ops);
  Alcotest.(check int) "nothing due to fail yet" 0 (Ops.expire ops ~now:99);
  (* [a] is lost: at its deadline it fails and frees its place. *)
  Alcotest.(check int) "a fails" 1 (Ops.expire ops ~now:100);
  Alcotest.(check int) "its slot is free" 1 (Ops.in_flight_data ops);
  Alcotest.(check int) "counted failed" 1 (Ops.failed ops);
  (match Ops.leg ops ~now:105 ~seq:b ~leg:0 with
  | Ops.Done 95 -> ()
  | _ -> Alcotest.fail "b completes 95 ns after it was due");
  (* A late leg of the failed op is ignored, not double-counted. *)
  (match Ops.leg ops ~now:120 ~seq:a ~leg:0 with
  | Ops.Late -> ()
  | _ -> Alcotest.fail "a late leg is Late");
  Alcotest.(check int) "attempted" 2 (Ops.attempted ops);
  Alcotest.(check int) "completed" 1 (Ops.completed ops);
  Alcotest.(check int) "failed" 1 (Ops.failed ops);
  Alcotest.(check int) "window empty" 0 (Ops.in_flight ops)

let test_duplicates_and_strays_fail () =
  let ops = Ops.create ~cap:16 ~deadline_ns:1000 in
  let a = Ops.start ops ~now:0 ~due:0 ~legs:1 ~data:true in
  ignore (Ops.leg ops ~now:5 ~seq:a ~leg:0);
  (match Ops.leg ops ~now:6 ~seq:a ~leg:0 with
  | Ops.Duplicate -> ()
  | _ -> Alcotest.fail "second Deliver is a duplicate");
  (match Ops.leg ops ~now:7 ~seq:42 ~leg:0 with
  | Ops.Stray -> ()
  | _ -> Alcotest.fail "an op never sent is a stray");
  Alcotest.(check int) "both count as failed" 2 (Ops.failed ops)

(* --- open-loop timing --- *)

let test_latency_from_due_time () =
  let ops = Ops.create ~cap:16 ~deadline_ns:10_000 in
  (* Due at 1000 but sent late at 1500 (the generator stalled): the
     wait counts, so completion at 1800 reads 800 ns, not 300. *)
  let s = Ops.start ops ~now:1500 ~due:1000 ~legs:1 ~data:true in
  match Ops.leg ops ~now:1800 ~seq:s ~leg:0 with
  | Ops.Done lat -> Alcotest.(check int) "latency from due time" 800 lat
  | _ -> Alcotest.fail "op completes"

(* --- the Deliver checker --- *)

let spec = Option.get (Workload.find "fanout8_1k")
let w = Workload.generate spec ~seed:3
let tag_index = Workload.tag_index w

let test_checker () =
  let c = w.Workload.check in
  let payload = Check.payload c ~seq:17 in
  let tag = w.Workload.tags.(5) in
  (match Check.deliver c ~tag_index ~stack:[ I3.Packet.Sid tag ] ~payload ~trace:0 with
  | Check.Leg { seq = 17; leg = 5 } -> ()
  | _ -> Alcotest.fail "a well-formed leg");
  let corrupt = Bytes.of_string payload in
  Bytes.set corrupt 100 (Char.chr (Char.code (Bytes.get corrupt 100) lxor 1));
  (match
     Check.deliver c ~tag_index ~stack:[ I3.Packet.Sid tag ]
       ~payload:(Bytes.to_string corrupt) ~trace:0
   with
  | Check.Corrupt { seq = Some 17; _ } -> ()
  | _ -> Alcotest.fail "one flipped bit is rejected");
  (match
     Check.deliver c ~tag_index ~stack:[ I3.Packet.Sid w.Workload.ids.(0) ] ~payload
       ~trace:0
   with
  | Check.Corrupt _ -> ()
  | _ -> Alcotest.fail "a tag that is no fan-out leg is rejected");
  (match Check.deliver c ~tag_index ~stack:[] ~payload ~trace:0 with
  | Check.Corrupt _ -> ()
  | _ -> Alcotest.fail "a fan-out Deliver without its tag is rejected");
  match Check.deliver c ~tag_index ~stack:[ I3.Packet.Sid tag ] ~payload ~trace:9 with
  | Check.Corrupt _ -> ()
  | _ -> Alcotest.fail "a traced Deliver is rejected"

let test_missing_leg_fails () =
  let ops = Ops.create ~cap:16 ~deadline_ns:100 in
  let s = Ops.start ops ~now:0 ~due:0 ~legs:8 ~data:true in
  for leg = 0 to 6 do
    match Ops.leg ops ~now:10 ~seq:s ~leg with
    | Ops.Partial -> ()
    | _ -> Alcotest.fail "seven of eight legs leave the op pending"
  done;
  Alcotest.(check int) "still in flight" 1 (Ops.in_flight ops);
  Alcotest.(check int) "the missing leg fails the op" 1 (Ops.expire ops ~now:100);
  Alcotest.(check int) "nothing completed" 0 (Ops.completed ops)

let test_workload_seeded () =
  let a = Workload.generate spec ~seed:3 and b = Workload.generate spec ~seed:4 in
  Alcotest.(check bool) "same seed, same ids" true (a.Workload.ids = w.Workload.ids);
  Alcotest.(check bool) "another seed, other ids" false (a.Workload.ids = b.Workload.ids);
  let gen = 0x7f00000112345 in
  let index = Workload.trigger_index w in
  for i = 0 to Workload.triggers spec - 1 do
    Alcotest.(check (option int)) "ack maps back to its trigger" (Some i)
      (index (Workload.trigger w ~gen i))
  done

let () =
  Alcotest.run "e2ebench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "ops",
        [
          Alcotest.test_case "lost op frees its slot and fails" `Quick
            test_lost_op_frees_slot;
          Alcotest.test_case "duplicates and strays fail" `Quick
            test_duplicates_and_strays_fail;
          Alcotest.test_case "open-loop latency from due time" `Quick
            test_latency_from_due_time;
          Alcotest.test_case "missing fan-out leg fails" `Quick test_missing_leg_fails;
        ] );
      ( "check",
        [
          Alcotest.test_case "corrupt payload and bad tags rejected" `Quick test_checker;
          Alcotest.test_case "workload is a function of the seed" `Quick
            test_workload_seeded;
        ] );
    ]
