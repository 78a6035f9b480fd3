(* Transport-layer robustness coverage: the uniform [wait]/[poll]
   conventions every transport now shares (blocking receive vs
   non-blocking maintenance), deterministic unit tests of the
   [Transport.Faulty] send-boundary decorator against a fake send
   closure and the caller's clock, a differential test holding it to
   [Net]'s verdicts from one seed, and — where loopback sockets are allowed
   — a maximal-depth maximal-payload frame pushed through a real UDP
   socket to pin the receive path's bounds. *)

let rng0 = Rng.of_int 1812

(* --- poll/wait conventions --- *)

let test_udp_poll_drains () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ -> ()
  | a, b ->
      let got = ref 0 in
      Transport.Udp.set_handler b (fun ~src:_ _ -> incr got);
      for i = 1 to 3 do
        Transport.Udp.send a ~dst:(Transport.Udp.local_addr b)
          (string_of_int i)
      done;
      (* [wait] blocks for the first arrival; [poll] then drains whatever
         else is queued without blocking. *)
      let deadline = Unix.gettimeofday () +. 2. in
      let rec go () =
        if !got < 3 && Unix.gettimeofday () < deadline then begin
          ignore (Transport.Udp.wait b ~timeout:0.1);
          Transport.Udp.poll b ~now:0.;
          go ()
        end
      in
      go ();
      Alcotest.(check int) "all datagrams drained" 3 !got;
      (* On an empty socket poll must return immediately. *)
      let t0 = Unix.gettimeofday () in
      Transport.Udp.poll b ~now:0.;
      Alcotest.(check bool) "poll never blocks" true
        (Unix.gettimeofday () -. t0 < 0.05);
      Transport.Udp.close a;
      Transport.Udp.close b

(* One [wait] takes the whole queue: a burst from three senders reaches
   the handler in one call, each datagram with its sender's address and
   in that sender's order; the drained socket then polls empty at once. *)
let test_udp_wait_drains_burst () =
  match (Transport.Udp.create (), List.init 3 (fun _ -> Transport.Udp.create ())) with
  | exception Unix.Unix_error _ -> ()
  | b, senders ->
      let dst = Transport.Udp.local_addr b in
      let got = ref [] in
      Transport.Udp.set_handler b (fun ~src bytes -> got := (src, bytes) :: !got);
      for i = 0 to 47 do
        Transport.Udp.send (List.nth senders (i mod 3)) ~dst (string_of_int (i / 3))
      done;
      (* Loopback queues a datagram within its sendto; the pause only
         guards against a slow kernel. *)
      Unix.sleepf 0.05;
      Alcotest.(check bool) "wait reports arrivals" true
        (Transport.Udp.wait b ~timeout:1.);
      Alcotest.(check int) "one wait drains the burst" 48 (List.length !got);
      let arrived = List.rev !got in
      List.iter
        (fun s ->
          let src = Transport.Udp.local_addr s in
          Alcotest.(check (list string))
            "right source, sender order"
            (List.init 16 string_of_int)
            (List.filter_map
               (fun (a, bytes) -> if a = src then Some bytes else None)
               arrived))
        senders;
      let t0 = Unix.gettimeofday () in
      Transport.Udp.poll b ~now:0.;
      Alcotest.(check bool) "poll on the empty socket returns at once" true
        (Unix.gettimeofday () -. t0 < 0.05);
      Alcotest.(check int) "nothing more arrived" 48 (List.length !got);
      List.iter Transport.Udp.close (b :: senders)

(* [wait] sleeps in a blocking [recvfrom] with a receive timeout (or in
   [select] for deadlines under 10 ms).  Either way an empty wait ends
   near its timeout, and a [poll] after it, on the socket left in
   blocking mode, must not sit out a second receive timeout. *)
let test_udp_wait_times_out () =
  match Transport.Udp.create () with
  | exception Unix.Unix_error _ -> ()
  | b ->
      List.iter
        (fun timeout ->
          let t0 = Unix.gettimeofday () in
          Alcotest.(check bool) "empty wait reports nothing" false
            (Transport.Udp.wait b ~timeout);
          let slept = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "slept about %g s (%g s)" timeout slept)
            true
            (slept >= timeout *. 0.9 && slept < timeout +. 0.5);
          let t1 = Unix.gettimeofday () in
          Transport.Udp.poll b ~now:0.;
          Alcotest.(check bool) "poll after the wait returns at once" true
            (Unix.gettimeofday () -. t1 < 0.1))
        [ 0.005; 0.2 ];
      Transport.Udp.close b

(* More distinct peers than an address cache holds, in each direction:
   every send still reaches the socket it names and every arrival still
   names its true source across the caches' resets.  All of 127/8 is
   loopback, so each peer gets an address of its own. *)
let test_udp_address_cache_reset () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ -> ()
  | a, b ->
      let module U = Transport.Udp in
      let peers = U.cache_cap + 64 in
      let ip i = (127 lsl 24) lor ((1 + (i / 250)) lsl 8) lor (1 + (i mod 250)) in
      let bind i ~port = U.create ~host:(U.string_of_ip (ip i)) ~port () in
      (* Send side: [a] sends to [peers] addresses, 64 receivers at a
         time, all on [a]'s port; each must hear exactly its own. *)
      let port = U.port_of (U.local_addr a) in
      for batch = 0 to (peers - 1) / 64 do
        let ids = List.init 64 (fun k -> (batch * 64) + k) in
        let rx =
          List.filter_map
            (fun i ->
              if i >= peers then None
              else
                let u = bind i ~port and got = ref 0 in
                U.set_handler u (fun ~src:_ _ -> incr got);
                Some (u, got))
            ids
        in
        List.iter (fun (u, _) -> U.send a ~dst:(U.local_addr u) "t") rx;
        let pending () = List.exists (fun (_, got) -> !got = 0) rx in
        let deadline = Unix.gettimeofday () +. 1. in
        while pending () && Unix.gettimeofday () < deadline do
          List.iter (fun (u, _) -> U.poll u ~now:0.) rx;
          if pending () then Unix.sleepf 0.001
        done;
        List.iter
          (fun (u, got) ->
            if !got <> 1 then
              Alcotest.failf "destination %s heard %d datagrams, want 1"
                (U.string_of_ip (U.ip_of (U.local_addr u)))
                !got;
            U.close u)
          rx
      done;
      (* Receive side: [b] hears from [peers] source addresses. *)
      let heard = ref 0 and named = ref 0 and want = ref (-1) in
      U.set_handler b (fun ~src _ ->
          incr heard;
          if src = !want then incr named);
      for i = 0 to peers - 1 do
        let s = bind i ~port:0 in
        want := U.local_addr s;
        U.send s ~dst:(U.local_addr b) "r";
        let before = !heard in
        let deadline = Unix.gettimeofday () +. 1. in
        while !heard = before && Unix.gettimeofday () < deadline do
          ignore (U.wait b ~timeout:0.05)
        done;
        U.close s;
        if !heard = before then Alcotest.failf "source %d never heard" i
      done;
      Alcotest.(check int) "every source heard" peers !heard;
      Alcotest.(check int) "every source named right" peers !named;
      U.close a;
      U.close b

(* --- Faulty: fake send closure + caller's clock --- *)

let fake_faulty ?(seed = 7) ?(local = 1) () =
  let sent = ref [] in
  let f =
    Transport.Faulty.create
      ~metrics:(Obs.Metrics.create ())
      ~rng:(Rng.of_int seed) ~local
      (fun ~dst bytes -> sent := (dst, bytes) :: !sent)
  in
  (f, sent)

let send ?(now = 0.) f ~dst bytes = Transport.Faulty.send f ~now ~dst bytes
let delivered sent = List.length !sent

let test_faulty_loss_extremes () =
  let f, sent = fake_faulty () in
  Transport.Faulty.apply f (Faults.Loss 1.);
  for _ = 1 to 50 do send f ~dst:2 "x" done;
  Alcotest.(check int) "blackhole drops all" 0 (delivered sent);
  Transport.Faulty.apply f (Faults.Loss 0.);
  for _ = 1 to 50 do send f ~dst:2 "x" done;
  Alcotest.(check int) "lossless delivers all" 50 (delivered sent)

let test_faulty_duplicate () =
  let f, sent = fake_faulty () in
  Transport.Faulty.apply f (Faults.Duplicate 1.);
  for _ = 1 to 20 do send f ~dst:9 "dup" done;
  Alcotest.(check int) "every datagram doubled" 40 (delivered sent)

let test_faulty_delay_flush () =
  let f, sent = fake_faulty () in
  Transport.Faulty.apply f (Faults.Latency_spike 50.);
  send f ~dst:2 "a";
  send f ~dst:2 "b";
  Alcotest.(check int) "parked, not sent" 0 (delivered sent);
  Alcotest.(check int) "pending" 2 (Transport.Faulty.pending f);
  Alcotest.(check int) "not yet due" 0 (Transport.Faulty.flush f ~now:10.);
  Alcotest.(check int) "released" 2 (Transport.Faulty.flush f ~now:60.);
  Alcotest.(check int) "delivered after due" 2 (delivered sent);
  (* FIFO for equal spikes: 'a' parked first leaves first. *)
  Alcotest.(check string) "order kept" "a" (snd (List.nth !sent 1))

let test_faulty_partition_heal () =
  let f, sent = fake_faulty ~local:1 () in
  Transport.Faulty.apply f (Faults.Partition [ 1 ]);
  send f ~dst:2 "cut";
  Alcotest.(check int) "cut severs local from dst" 0 (delivered sent);
  (* Same-side endpoints are untouched. *)
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.apply f (Faults.Partition [ 1; 2 ]);
  send f ~dst:2 "same-side";
  Alcotest.(check int) "same side passes" 1 (delivered sent);
  Transport.Faulty.apply f Faults.Heal;
  send f ~dst:7 "healed";
  Alcotest.(check int) "heal restores" 2 (delivered sent)

let test_faulty_gray () =
  let f, sent = fake_faulty ~local:1 () in
  Transport.Faulty.apply f (Faults.Gray { from_site = 1; to_site = 2 });
  send f ~dst:2 "gray";
  Alcotest.(check int) "gray drops from->to" 0 (delivered sent);
  send f ~dst:3 "other";
  Alcotest.(check int) "other links live" 1 (delivered sent);
  Transport.Faulty.apply f (Faults.Gray_heal { from_site = 1; to_site = 2 });
  send f ~dst:2 "healed";
  Alcotest.(check int) "gray heal restores" 2 (delivered sent)

let test_faulty_deterministic () =
  (* Same seed, same event stream, same sends => byte-identical fate
     pattern; that's what makes live chaos runs replayable. *)
  let run () =
    let f, sent = fake_faulty ~seed:99 () in
    Transport.Faulty.apply f (Faults.Loss 0.3);
    Transport.Faulty.apply f (Faults.Duplicate 0.2);
    Transport.Faulty.apply f (Faults.Jitter 5.);
    for i = 1 to 200 do
      send f ~dst:(i mod 4) (string_of_int i)
    done;
    ignore (Transport.Faulty.flush f ~now:1_000.);
    List.rev !sent
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (d1, b1) (d2, b2) ->
      Alcotest.(check int) "dst" d1 d2;
      Alcotest.(check string) "bytes" b1 b2)
    a b

(* Due times are on the caller's clock.  A [now] that steps backwards
   releases nothing early; stepping forward again releases in due
   order, FIFO among equal due times. *)
let test_faulty_caller_clock () =
  let f, sent = fake_faulty () in
  Transport.Faulty.apply f (Faults.Latency_spike 50.);
  send f ~now:1_000. ~dst:2 "a";  (* due 1050 *)
  send f ~now:1_000. ~dst:2 "b";  (* due 1050, parked after a *)
  send f ~now:1_020. ~dst:2 "c";  (* due 1070 *)
  Alcotest.(check int) "clock stepped back: nothing early" 0
    (Transport.Faulty.flush f ~now:500.);
  (* Sent after the step back: due 590, before everything parked. *)
  send f ~now:540. ~dst:2 "d";
  Alcotest.(check int) "still short of every due time" 0
    (Transport.Faulty.flush f ~now:589.);
  Alcotest.(check int) "the step-back datagram is due first" 1
    (Transport.Faulty.flush f ~now:1_049.);
  Alcotest.(check int) "step forward releases the rest" 3
    (Transport.Faulty.flush f ~now:5_000.);
  Alcotest.(check (list string)) "due order, FIFO on ties"
    [ "d"; "a"; "b"; "c" ]
    (List.rev_map snd !sent)

let test_faulty_burst () =
  (* Always-bad Gilbert-Elliott channel with loss_bad = 1 drops
     everything; Burst_end restores. *)
  let f, sent = fake_faulty () in
  Transport.Faulty.apply f
    (Faults.Burst_loss { p_enter = 1.; p_exit = 0.; loss_bad = 1. });
  for _ = 1 to 30 do send f ~dst:2 "x" done;
  Alcotest.(check int) "bad state eats all" 0 (delivered sent);
  Transport.Faulty.apply f Faults.Burst_end;
  send f ~dst:2 "x";
  Alcotest.(check int) "burst end restores" 1 (delivered sent)

(* A NaN delay once parked a datagram at due time NaN: it sorted first
   and was never [<= now], so it and everything parked behind it stayed
   forever.  Non-finite parameters, out-of-range or NaN probabilities
   and an empty partition are refused, and the weather keeps working. *)
let test_faulty_refuses_non_finite () =
  let f, sent = fake_faulty () in
  let refused name event =
    match Transport.Faulty.apply f event with
    | () -> Alcotest.failf "%s was accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "spike nan" (Faults.Latency_spike Float.nan);
  refused "spike inf" (Faults.Latency_spike Float.infinity);
  refused "jitter nan" (Faults.Jitter Float.nan);
  refused "jitter inf" (Faults.Jitter Float.infinity);
  refused "negative jitter" (Faults.Jitter (-1.));
  refused "loss nan" (Faults.Loss Float.nan);
  refused "loss 1.5" (Faults.Loss 1.5);
  refused "duplicate nan" (Faults.Duplicate Float.nan);
  refused "burst nan"
    (Faults.Burst_loss { p_enter = Float.nan; p_exit = 0.5; loss_bad = 1. });
  refused "empty partition" (Faults.Partition []);
  send f ~dst:2 "first";
  Transport.Faulty.apply f (Faults.Latency_spike 5.);
  send f ~dst:2 "second";
  Alcotest.(check int) "a valid 5 ms datagram leaves on time" 1
    (Transport.Faulty.flush f ~now:1e9);
  Alcotest.(check int) "nothing left parked" 0 (Transport.Faulty.pending f);
  Alcotest.(check int) "both delivered" 2 (delivered sent)

(* --- one weather, two drivers --- *)

(* A seeded plan of weather events interleaved with sends from site 1
   to sites 2 and 3, every 1000 ms (longer than any delay it arms). *)
let weather_plan rng =
  let p () = Rng.float rng 1. in
  let event () =
    match Rng.int rng 10 with
    | 0 -> Faults.Loss (0.3 *. p ())
    | 1 -> Faults.Jitter (20. *. p ())
    | 2 -> Faults.Latency_spike (5. *. p ())
    | 3 -> Faults.Duplicate (0.6 *. p ())
    | 4 ->
        Faults.Burst_loss
          {
            p_enter = 0.4 *. p ();
            p_exit = 0.2 +. (0.5 *. p ());
            loss_bad = 0.9;
          }
    | 5 -> Faults.Burst_end
    | 6 -> Faults.Partition [ 1 + Rng.int rng 3 ]
    | 7 -> Faults.Heal
    | 8 -> Faults.Gray { from_site = 1; to_site = 2 + Rng.int rng 2 }
    | _ -> Faults.Gray_heal { from_site = 1; to_site = 2 + Rng.int rng 2 }
  in
  List.init 1_200 (fun k ->
      if k mod 4 = 0 then `Weather (event ()) else `Send (2 + Rng.int rng 2))

(* The same seeded plan through [Net] (sites 1..3, zero base latency)
   and through [Faulty] (local address 1, destinations 2 and 3), each
   with its own [Rng] from one seed: every send must meet the same fate
   on both — the same drop cause, or copies leaving at the same offsets
   to the last bit.  Faulty is flushed at each of Net's delivery
   instants and just before it, so a copy due even one float earlier
   shows up at a different offset. *)
let test_weather_differential () =
  let seed = 2718 in
  let plan = weather_plan (Rng.of_int 31) in
  let net_fate = Hashtbl.create 256 and faulty_fate = Hashtbl.create 256 in
  let record tbl i v =
    let old = Option.value ~default:[] (Hashtbl.find_opt tbl i) in
    Hashtbl.replace tbl i (v :: old)
  in
  let sent_at = Hashtbl.create 256 in
  let offset i now = Printf.sprintf "copy %h" (now -. Hashtbl.find sent_at i) in
  let e = Engine.create () in
  let net =
    Net.create ~metrics:(Obs.Metrics.create ()) e ~rng:(Rng.of_int seed)
      ~latency:(fun _ _ -> 0.)
      ()
  in
  let metrics = Obs.Metrics.create () in
  let clock = ref 0. in
  let f =
    Transport.Faulty.create ~metrics ~rng:(Rng.of_int seed) ~local:1
      (fun ~dst:_ bytes ->
        let i = int_of_string bytes in
        record faulty_fate i (offset i !clock))
  in
  let flush_at now =
    clock := now;
    ignore (Transport.Faulty.flush f ~now)
  in
  let src = Net.register net ~site:1 (fun ~src:_ _ -> ()) in
  let sink ~src:_ i =
    let now = Engine.now e in
    flush_at (Float.pred now);
    flush_at now;
    record net_fate i (offset i now)
  in
  let to2 = Net.register net ~site:2 sink in
  let to3 = Net.register net ~site:3 sink in
  Net.set_observer net (fun ~src:_ ~dst:_ i -> function
    | `Drop cause -> record net_fate i ("drop " ^ cause)
    | `Enqueue -> ());
  let drops () =
    List.map
      (fun cause ->
        ( cause,
          Obs.Metrics.counter_value
            (Obs.Metrics.counter metrics
               ~labels:[ ("instance", "faulty1"); ("cause", cause) ]
               "faulty.dropped") ))
      [ "partition"; "gray"; "burst"; "loss" ]
  in
  List.iteri
    (fun k step ->
      Engine.schedule e ~delay:(1_000. *. float_of_int k) (fun () ->
          match step with
          | `Weather ev ->
              Net.apply net ev;
              Transport.Faulty.apply f ev
          | `Send site ->
              let now = Engine.now e in
              Hashtbl.replace sent_at k now;
              Net.send net ~src ~dst:(if site = 2 then to2 else to3) k;
              let before = drops () in
              clock := now;
              Transport.Faulty.send f ~now ~dst:site (string_of_int k);
              List.iter2
                (fun (cause, n0) (_, n1) ->
                  if n1 > n0 then record faulty_fate k ("drop " ^ cause))
                before (drops ())))
    plan;
  Engine.run e;
  flush_at Float.infinity;
  let fates tbl =
    List.filter_map
      (fun (k, step) ->
        match step with
        | `Send _ ->
            Some
              (List.sort compare
                 (Option.value ~default:[ "lost" ] (Hashtbl.find_opt tbl k)))
        | `Weather _ -> None)
      (List.mapi (fun k s -> (k, s)) plan)
  in
  Alcotest.(check (list (list string)))
    "same fate for every send" (fates net_fate) (fates faulty_fate);
  (* The plan must have exercised every branch of the core. *)
  let st = Net.stats net in
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "the plan never produced %s" what)
    [
      ("a partition drop", st.Net.dropped_partition);
      ("a gray drop", st.Net.dropped_gray);
      ("a burst drop", st.Net.dropped_burst);
      ("a uniform loss", st.Net.dropped_loss);
      ("a duplicate", st.Net.duplicated);
    ]

(* --- Udp bounds: maximal legal frame over a real socket --- *)

let max_frame_message () =
  let stack = List.init I3.Packet.max_stack_depth (fun _ -> I3.Packet.Sid (Id.random rng0)) in
  let payload = String.init Wire.Layout.max_data_payload (fun i -> Char.chr (i land 0xff)) in
  I3.Message.Data (I3.Packet.make ~stack ~payload ())

let test_udp_max_frame () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ ->
      (* Sandboxed environments without loopback sockets: satellite
         coverage degrades to the encode-side bound check below. *)
      ()
  | a, b ->
      let msg = max_frame_message () in
      let bytes = I3.Codec.encode msg in
      Alcotest.(check int) "maximal frame fills the datagram bound"
        Wire.Layout.max_datagram (String.length bytes);
      let got = ref None in
      Transport.Udp.set_handler b (fun ~src:_ data -> got := Some data);
      Transport.Udp.send a ~dst:(Transport.Udp.local_addr b) bytes;
      let rec wait n =
        if n = 0 then ()
        else if !got = None then begin
          ignore (Transport.Udp.wait b ~timeout:0.1);
          wait (n - 1)
        end
      in
      wait 20;
      (match !got with
      | None -> Alcotest.fail "maximal frame never arrived"
      | Some data ->
          Alcotest.(check int) "no truncation on receive"
            (String.length bytes) (String.length data);
          (match I3.Codec.decode data with
          | Ok m ->
              Alcotest.(check bool) "decodes back to the same frame" true
                (String.equal (I3.Codec.encode m) bytes)
          | Error e -> Alcotest.fail ("maximal frame must decode: " ^ e)));
      Transport.Udp.close a;
      Transport.Udp.close b

let test_udp_oversize_rejected () =
  match Transport.Udp.create () with
  | exception Unix.Unix_error _ -> ()
  | u ->
      let over = String.make (Transport.Udp.max_datagram + 1) 'x' in
      Alcotest.check_raises "oversize send is refused"
        (Invalid_argument "Transport.Udp.send: datagram too large")
        (fun () -> Transport.Udp.send u ~dst:(Transport.Udp.local_addr u) over);
      Transport.Udp.close u

(* --- Driver over a real socket: refused sends are not fatal --- *)

(* A data packet whose stack ends in a broadcast or port-0 [Saddr]
   makes the kernel refuse the Deliver for good (EACCES, EINVAL).  The
   driver must count each refusal, keep the daemon alive and still
   deliver the next good packet. *)
let test_driver_survives_refused_sends () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ -> ()
  | srv, sink ->
      let metrics = Obs.Metrics.create () in
      let addr = Transport.Udp.local_addr srv in
      let engine = I3.Engine.create ~seed:5 ~addr ~metrics () in
      let d =
        Transport.Driver.create ~metrics ~instance:"srv"
          ~send:(Transport.Udp.send srv) engine
      in
      let deliver_to ?(payload = "x") a =
        I3.Codec.encode
          (I3.Message.Data
             (I3.Packet.make ~stack:[ I3.Packet.Saddr a ] ~payload ()))
      in
      let src = Transport.Udp.local_addr sink in
      let broadcast = Transport.Udp.pack ~ip:0xffffffff ~port:9 in
      let port0 = Transport.Udp.pack ~ip:(Transport.Udp.ip_of addr) ~port:0 in
      Transport.Driver.on_datagram d ~now:1. ~src (deliver_to broadcast);
      Transport.Driver.on_datagram d ~now:2. ~src (deliver_to port0);
      let errors =
        Obs.Metrics.counter metrics ~labels:[ ("instance", "srv") ]
          "driver.send_errors"
      in
      Alcotest.(check int) "both refusals counted" 2
        (Obs.Metrics.counter_value errors);
      let got = ref None in
      Transport.Udp.set_handler sink (fun ~src:_ bytes -> got := Some bytes);
      Transport.Driver.on_datagram d ~now:3. ~src (deliver_to ~payload:"ok" src);
      let rec wait n =
        if n > 0 && !got = None then begin
          ignore (Transport.Udp.wait sink ~timeout:0.1);
          wait (n - 1)
        end
      in
      wait 20;
      (match Option.map I3.Codec.decode !got with
      | Some (Ok (I3.Message.Deliver { payload; _ })) ->
          Alcotest.(check string) "next good packet delivered" "ok" payload
      | _ -> Alcotest.fail "no Deliver after the refused sends");
      Transport.Udp.close srv;
      Transport.Udp.close sink

(* --- Driver under clock steps --- *)

(* The driver takes its [now] from the caller, so a clock that steps
   back 10 s and then forward again is just a sequence of [~now]
   values.  Two engines, each behind its own driver, share one loop
   clock over an in-memory wire.  Through both steps a trigger
   refreshed within its lifetime still matches data, the Chord
   stabilize rounds (counted as Get_state frames sent) keep running,
   and the loop's sleep stays within [0, cap]. *)
let test_driver_clock_steps () =
  let metrics = Obs.Metrics.create () in
  let host = 0x99 and cap = 0.25 in
  let chord_config =
    {
      Chord.Protocol.default_config with
      stabilize_period = 500.;
      fix_fingers_period = 1_000.;
      rpc_timeout = 200.;
    }
  in
  let wire = Queue.create () and to_host = ref [] in
  let node ~addr ?join name =
    let engine =
      I3.Engine.create ~seed:addr ~addr ~id:(Id.routing_key (Id.name_hash name))
        ?join ~chord_config ~metrics ()
    in
    Transport.Driver.create ~metrics ~instance:name
      ~send:(fun ~dst bytes -> Queue.add (addr, dst, bytes) wire)
      engine
  in
  let a = node ~addr:1 "a" in
  let b = node ~addr:2 ~join:[ 1 ] "b" in
  let nodes = [ (1, a); (2, b) ] in
  let rec drain ~now =
    if not (Queue.is_empty wire) then begin
      let batch = List.of_seq (Queue.to_seq wire) in
      Queue.clear wire;
      List.iter
        (fun (src, dst, bytes) ->
          match List.assoc_opt dst nodes with
          | Some d -> Transport.Driver.on_datagram d ~now ~src bytes
          | None -> if dst = host then to_host := bytes :: !to_host)
        batch;
      drain ~now
    end
  in
  let run ~from ~until =
    let now = ref from in
    while !now <= until do
      List.iter
        (fun (_, d) ->
          let timeout = Transport.Driver.timeout d ~now:!now ~cap in
          if not (timeout >= 0. && timeout <= cap) then
            Alcotest.failf "timeout %g outside [0, %g] at now=%g" timeout cap
              !now;
          match Transport.Driver.next_due d with
          | Some due when due <= !now -> Transport.Driver.tick d ~now:!now
          | _ -> ())
        nodes;
      drain ~now:!now;
      now := !now +. 50.
    done
  in
  let stabilize_rounds () =
    List.fold_left
      (fun n name ->
        n
        + Obs.Metrics.counter_value
            (Obs.Metrics.counter metrics ~labels:[ ("instance", name) ]
               "driver.tx.get_state"))
      0 [ "a"; "b" ]
  in
  let id = Id.name_hash "clock-steps" in
  let insert ~now =
    Transport.Driver.step a ~now
      (I3.Engine.Insert_trigger (I3.Trigger.to_host ~id ~owner:host));
    drain ~now
  in
  run ~from:0. ~until:5_000.;
  insert ~now:5_000.;
  run ~from:5_050. ~until:20_000.;
  (* Refreshed 15 s into a 30 s lifetime. *)
  insert ~now:20_000.;
  let before = stabilize_rounds () in
  Alcotest.(check bool) "stabilizing before the steps" true (before > 0);
  (* Back 10 s, five seconds of turns there, then forward again. *)
  run ~from:10_000. ~until:15_000.;
  run ~from:20_050. ~until:45_000.;
  Alcotest.(check bool) "stabilize rounds keep running" true
    (stabilize_rounds () > before);
  to_host := [];
  Transport.Driver.step a ~now:45_000.
    (I3.Engine.Send_packet
       (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"after" ()));
  drain ~now:45_000.;
  match List.map I3.Codec.decode !to_host with
  | [ Ok (I3.Message.Deliver { payload; _ }) ] ->
      Alcotest.(check string) "refreshed trigger still matches" "after" payload
  | _ -> Alcotest.fail "no single Deliver for the refreshed trigger"

let () =
  Alcotest.run "transport"
    [
      ( "conventions",
        [
          Alcotest.test_case "udp wait blocks, poll drains" `Quick
            test_udp_poll_drains;
          Alcotest.test_case "udp wait drains a burst" `Quick
            test_udp_wait_drains_burst;
          Alcotest.test_case "udp wait times out, poll never blocks" `Quick
            test_udp_wait_times_out;
          Alcotest.test_case "udp address caches reset" `Quick
            test_udp_address_cache_reset;
        ] );
      ( "faulty",
        [
          Alcotest.test_case "loss extremes" `Quick test_faulty_loss_extremes;
          Alcotest.test_case "duplicate" `Quick test_faulty_duplicate;
          Alcotest.test_case "delay parks until flush" `Quick
            test_faulty_delay_flush;
          Alcotest.test_case "partition cut + heal" `Quick
            test_faulty_partition_heal;
          Alcotest.test_case "gray link one-way" `Quick test_faulty_gray;
          Alcotest.test_case "flush follows the caller's clock" `Quick
            test_faulty_caller_clock;
          Alcotest.test_case "non-finite parameters refused" `Quick
            test_faulty_refuses_non_finite;
          Alcotest.test_case "same fate as Net from one seed" `Quick
            test_weather_differential;
          Alcotest.test_case "burst loss channel" `Quick test_faulty_burst;
          Alcotest.test_case "seeded replay is deterministic" `Quick
            test_faulty_deterministic;
        ] );
      ( "udp_bounds",
        [
          Alcotest.test_case "maximal frame roundtrips" `Quick
            test_udp_max_frame;
          Alcotest.test_case "oversize send rejected" `Quick
            test_udp_oversize_rejected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "refused sends are counted, not fatal" `Quick
            test_driver_survives_refused_sends;
          Alcotest.test_case "clock steps back and forward" `Quick
            test_driver_clock_steps;
        ] );
    ]
