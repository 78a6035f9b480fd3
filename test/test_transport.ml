(* Transport-layer robustness coverage: the uniform [wait]/[poll]
   conventions every transport now shares (blocking receive vs
   non-blocking maintenance), deterministic unit tests of the
   [Transport.Faulty] send-boundary decorator against a fake lower
   transport and a fake clock, and — where loopback sockets are allowed
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

(* --- Faulty: fake lower + fake clock harness --- *)

let fake_faulty ?(seed = 7) ?(local = 1) () =
  let sent = ref [] in
  let now = ref 0. in
  let lower =
    {
      Transport.Faulty.send = (fun ~dst bytes -> sent := (dst, bytes) :: !sent);
      set_handler = (fun _ -> ());
      local_addr = local;
    }
  in
  let f =
    Transport.Faulty.create
      ~metrics:(Obs.Metrics.create ())
      ~clock:(fun () -> !now)
      ~rng:(Rng.of_int seed) lower
  in
  (f, sent, now)

let delivered sent = List.length !sent

let test_faulty_loss_extremes () =
  let f, sent, _ = fake_faulty () in
  Transport.Faulty.apply f (Faults.Loss 1.);
  for _ = 1 to 50 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "blackhole drops all" 0 (delivered sent);
  Transport.Faulty.apply f (Faults.Loss 0.);
  for _ = 1 to 50 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "lossless delivers all" 50 (delivered sent)

let test_faulty_duplicate () =
  let f, sent, _ = fake_faulty () in
  Transport.Faulty.apply f (Faults.Duplicate 1.);
  for _ = 1 to 20 do Transport.Faulty.send f ~dst:9 "dup" done;
  Alcotest.(check int) "every datagram doubled" 40 (delivered sent)

let test_faulty_delay_flush () =
  let f, sent, now = fake_faulty () in
  Transport.Faulty.apply f (Faults.Latency_spike 50.);
  Transport.Faulty.send f ~dst:2 "a";
  Transport.Faulty.send f ~dst:2 "b";
  Alcotest.(check int) "parked, not sent" 0 (delivered sent);
  Alcotest.(check int) "pending" 2 (Transport.Faulty.pending f);
  now := 10.;
  Alcotest.(check int) "not yet due" 0 (Transport.Faulty.flush f);
  now := 60.;
  Alcotest.(check int) "released" 2 (Transport.Faulty.flush f);
  Alcotest.(check int) "delivered after due" 2 (delivered sent);
  (* FIFO for equal spikes: 'a' parked first leaves first. *)
  Alcotest.(check string) "order kept" "a" (snd (List.nth !sent 1))

let test_faulty_partition_heal () =
  let f, sent, _ = fake_faulty ~local:1 () in
  Transport.Faulty.apply f (Faults.Partition [ 1 ]);
  Transport.Faulty.send f ~dst:2 "cut";
  Alcotest.(check int) "cut severs local from dst" 0 (delivered sent);
  (* Same-side endpoints are untouched. *)
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.apply f (Faults.Partition [ 1; 2 ]);
  Transport.Faulty.send f ~dst:2 "same-side";
  Alcotest.(check int) "same side passes" 1 (delivered sent);
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.send f ~dst:7 "healed";
  Alcotest.(check int) "heal restores" 2 (delivered sent)

let test_faulty_gray () =
  let f, sent, _ = fake_faulty ~local:1 () in
  Transport.Faulty.apply f (Faults.Gray { from_site = 1; to_site = 2 });
  Transport.Faulty.send f ~dst:2 "gray";
  Alcotest.(check int) "gray drops from->to" 0 (delivered sent);
  Transport.Faulty.send f ~dst:3 "other";
  Alcotest.(check int) "other links live" 1 (delivered sent);
  Transport.Faulty.apply f (Faults.Gray_heal { from_site = 1; to_site = 2 });
  Transport.Faulty.send f ~dst:2 "healed";
  Alcotest.(check int) "gray heal restores" 2 (delivered sent)

let test_faulty_deterministic () =
  (* Same seed, same event stream, same sends => byte-identical fate
     pattern; that's what makes live chaos runs replayable. *)
  let run () =
    let f, sent, now = fake_faulty ~seed:99 () in
    Transport.Faulty.apply f (Faults.Loss 0.3);
    Transport.Faulty.apply f (Faults.Duplicate 0.2);
    Transport.Faulty.apply f (Faults.Jitter 5.);
    for i = 1 to 200 do
      Transport.Faulty.send f ~dst:(i mod 4) (string_of_int i)
    done;
    now := 1_000.;
    ignore (Transport.Faulty.flush f);
    List.rev !sent
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (d1, b1) (d2, b2) ->
      Alcotest.(check int) "dst" d1 d2;
      Alcotest.(check string) "bytes" b1 b2)
    a b

let test_faulty_poll_releases () =
  (* [poll] is the uniform maintenance entry point: for Faulty it
     flushes parked datagrams that have come due on its *own* clock
     (the [~now] argument is deliberately ignored — the decorator's
     clock closure stays authoritative). *)
  let f, sent, now = fake_faulty () in
  Transport.Faulty.apply f (Faults.Latency_spike 50.);
  Transport.Faulty.send f ~dst:2 "a";
  Transport.Faulty.send f ~dst:2 "b";
  Transport.Faulty.poll f ~now:10_000.;
  Alcotest.(check int) "own clock rules, not ~now" 0 (delivered sent);
  now := 60.;
  Transport.Faulty.poll f ~now:0.;
  Alcotest.(check int) "due datagrams released" 2 (delivered sent)

let test_faulty_burst () =
  (* Always-bad Gilbert-Elliott channel with loss_bad = 1 drops
     everything; Burst_end restores. *)
  let f, sent, _ = fake_faulty () in
  Transport.Faulty.apply f
    (Faults.Burst_loss { p_enter = 1.; p_exit = 0.; loss_bad = 1. });
  for _ = 1 to 30 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "bad state eats all" 0 (delivered sent);
  Transport.Faulty.apply f Faults.Burst_end;
  Transport.Faulty.send f ~dst:2 "x";
  Alcotest.(check int) "burst end restores" 1 (delivered sent)

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

let () =
  Alcotest.run "transport"
    [
      ( "conventions",
        [
          Alcotest.test_case "udp wait blocks, poll drains" `Quick
            test_udp_poll_drains;
          Alcotest.test_case "udp wait drains a burst" `Quick
            test_udp_wait_drains_burst;
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
          Alcotest.test_case "poll releases due datagrams" `Quick
            test_faulty_poll_releases;
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
    ]
