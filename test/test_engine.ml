(* The sans-IO engine's contract, exercised without a single socket:

   - determinism: same seed + same stamped event sequence => the same
     effect trace, byte for byte;
   - decode dispatch: the kind byte sorts datagrams between the i3 and
     Chord codecs (data packets carry no preamble at all and still land
     on the i3 side);
   - the paper's Fig. 3 path as pure effects: Insert_trigger then
     Send_packet yields a [Deliver] at the trigger's owner;
   - dual-driver parity: interpreting one engine by hand and its twin
     through [Transport.Driver] produces identical wire bytes — the
     driver adds delivery, never behaviour;
   - two engines joined over an in-memory loopback form a real Chord
     ring (successor pointers converge both ways) on virtual time. *)

let fast_chord =
  {
    Chord.Protocol.default_config with
    stabilize_period = 50.;
    fix_fingers_period = 100.;
    rpc_timeout = 30.;
  }

let effect_bytes effs =
  List.filter_map I3.Engine.encode_effect effs

(* --- determinism --- *)

let script engine =
  (* A fixed event scenario on a virtual clock; returns the full trace. *)
  let id = Id.name_hash "determinism-id" in
  let trigger = I3.Trigger.to_host ~id ~owner:0xbeef in
  let trace = ref [] in
  let feed now ev = trace := !trace @ I3.Engine.step engine ~now ev in
  feed 0. (I3.Engine.Insert_trigger trigger);
  feed 10.
    (I3.Engine.Send_packet
       (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"abc" ~trace:3 ()));
  feed 200. I3.Engine.Tick;
  feed 1_000. I3.Engine.Tick;
  feed 5_000. I3.Engine.Tick;
  !trace

let test_determinism () =
  let mk () =
    I3.Engine.create ~seed:42 ~addr:7
      ~id:(Id.routing_key (Id.name_hash "node"))
      ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let a = script (mk ()) and b = script (mk ()) in
  Alcotest.(check int) "same trace length" (List.length a) (List.length b);
  List.iter2
    (fun ea eb ->
      Alcotest.(check bool) "same effect" true (ea = eb))
    a b;
  (* And the wire rendering agrees too. *)
  Alcotest.(check bool) "same bytes" true (effect_bytes a = effect_bytes b)

(* --- decode dispatch --- *)

let test_decode_dispatch () =
  let i3_frame =
    I3.Codec.encode
      (I3.Message.Insert
         {
           trigger = I3.Trigger.to_host ~id:(Id.name_hash "x") ~owner:9;
           token = Some "tok";
         })
  in
  (match I3.Engine.decode i3_frame with
  | Ok (I3.Message.Insert _) -> ()
  | _ -> Alcotest.fail "i3 control frame must dispatch to the i3 codec");
  let chord_frame =
    Chord.Codec.encode
      (Chord.Protocol.Get_state { token = 1; reply_to = 12 })
  in
  (match I3.Engine.decode chord_frame with
  | Ok (I3.Message.Chord (Chord.Protocol.Get_state _)) -> ()
  | _ -> Alcotest.fail "chord frame must dispatch to the chord codec");
  (* Data packets are encoded bare (no preamble); the flags byte at the
     kind offset stays below the control range. *)
  let data_frame =
    I3.Codec.encode
      (I3.Message.Data
         (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.name_hash "d") ]
            ~payload:"pp" ()))
  in
  (match I3.Engine.decode data_frame with
  | Ok (I3.Message.Data _) -> ()
  | _ -> Alcotest.fail "bare data packet must land on the i3 side");
  match I3.Engine.decode "\xff\xff\xff\xff garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

(* --- Fig. 3 as effects --- *)

let test_insert_then_deliver () =
  let e =
    I3.Engine.create ~seed:3 ~addr:1 ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let host = 0xcafe in
  let id = Id.name_hash "figure-3" in
  let effs =
    I3.Engine.step e ~now:0.
      (I3.Engine.Insert_trigger (I3.Trigger.to_host ~id ~owner:host))
  in
  (* A single-node ring owns everything: the insert acks locally. *)
  let acked =
    List.exists
      (function
        | I3.Engine.Send (_, I3.Message.Insert_ack _) -> true | _ -> false)
      effs
  in
  Alcotest.(check bool) "insert acked" true acked;
  let effs =
    I3.Engine.step e ~now:1.
      (I3.Engine.Send_packet
         (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"hello" ~trace:7
            ()))
  in
  match
    List.find_opt
      (function I3.Engine.Deliver _ -> true | _ -> false)
      effs
  with
  | Some (I3.Engine.Deliver { dst; stack; payload; trace }) ->
      Alcotest.(check int) "delivered to the trigger's owner" host dst;
      Alcotest.(check bool) "stack consumed" true (stack = []);
      Alcotest.(check string) "payload intact" "hello" payload;
      Alcotest.(check int) "trace carried" 7 trace
  | _ -> Alcotest.fail "matched packet must produce a Deliver effect"

(* --- totality: no decodable frame may crash the engine --- *)

let test_step_total =
  let open QCheck2.Gen in
  let gen =
    let* seed = int_range 1 1_000_000 in
    let* ops = list_size (int_range 1 40) (int_range 0 99) in
    return (seed, ops)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"step never raises on decoded frames" gen
       (fun (seed, ops) ->
         let rng = Rng.create (Int64.of_int seed) in
         let e =
           I3.Engine.create ~seed ~addr:1 ~chord_config:fast_chord
             ~metrics:(Obs.Metrics.create ())
             ()
         in
         let now = ref 0. in
         (* lifetimes a remote peer could put on the wire: zero, negative,
            NaN, absurd — none may reach the trigger table as a crash *)
         let hostile_float () =
           match Rng.int rng 5 with
           | 0 -> 0.
           | 1 -> -5.
           | 2 -> Float.nan
           | 3 -> Float.infinity
           | _ -> float_of_int (Rng.int rng 10_000)
         in
         let trigger () =
           let id = Id.random rng in
           if Rng.bool rng then
             I3.Trigger.to_host ~id ~owner:(Rng.int rng 0xffff)
           else
             I3.Trigger.make ~id
               ~stack:[ I3.Packet.Sid (Id.random rng) ]
               ~owner:(Rng.int rng 0xffff)
         in
         let msg () =
           match Rng.int rng 8 with
           | 0 ->
               I3.Message.Replica
                 { trigger = trigger (); lifetime = hostile_float () }
           | 1 ->
               I3.Message.Cache_push
                 {
                   triggers =
                     List.init
                       (1 + Rng.int rng 3)
                       (fun _ -> (trigger (), hostile_float ()));
                 }
           | 2 -> I3.Message.Insert { trigger = trigger (); token = None }
           | 3 -> I3.Message.Remove { trigger = trigger () }
           | 4 ->
               I3.Message.Data
                 (I3.Packet.make
                    ~stack:[ I3.Packet.Sid (Id.random rng) ]
                    ~payload:"p" ~ttl:(Rng.int rng 2) ())
           | 5 ->
               I3.Message.Pushback { id = Id.random rng; dead = Id.random rng }
           | 6 -> I3.Message.Ping { nonce = Rng.int rng 1000 }
           | _ -> I3.Message.Insert_ack { trigger = trigger (); server = 9 }
         in
         let frame () =
           (* half direct, half pushed through the codec with byte flips:
              only frames that still decode reach the engine, exactly the
              filtering a [Transport.Driver] performs *)
           let m = msg () in
           if Rng.bool rng then Some m
           else begin
             let bytes = Bytes.of_string (I3.Codec.encode m) in
             for _ = 1 to Rng.int rng 4 do
               let i = Rng.int rng (Bytes.length bytes) in
               Bytes.set bytes i (Char.chr (Rng.int rng 256))
             done;
             match I3.Engine.decode (Bytes.to_string bytes) with
             | Ok f -> Some f
             | Error _ -> None
           end
         in
         (try
            List.iter
              (fun op ->
                now := !now +. float_of_int (Rng.int rng 200);
                if op < 10 then
                  ignore (I3.Engine.step e ~now:!now I3.Engine.Tick)
                else if op < 80 then (
                  match frame () with
                  | Some f ->
                      ignore
                        (I3.Engine.step e ~now:!now
                           (I3.Engine.Frame { src = Rng.int rng 10; frame = f }))
                  | None -> ())
                else
                  (* burst arrival, as Driver.on_datagrams dispatches it *)
                  let events =
                    List.filter_map
                      (fun _ ->
                        Option.map
                          (fun f ->
                            I3.Engine.Frame { src = Rng.int rng 10; frame = f })
                          (frame ()))
                      (List.init (1 + Rng.int rng 5) Fun.id)
                  in
                  ignore (I3.Engine.step e ~now:!now (I3.Engine.Batch events)))
              ops
          with exn ->
            QCheck2.Test.fail_reportf "engine.step raised %s"
              (Printexc.to_string exn));
         true))

(* --- dual-driver parity --- *)

let test_driver_parity () =
  (* Twin engines, same seed; one interpreted by hand via
     [encode_effect], one through [Transport.Driver].  The bytes put on
     the (captured) wire must be identical. *)
  let mk () =
    I3.Engine.create ~seed:11 ~addr:3
      ~id:(Id.routing_key (Id.name_hash "twin"))
      ~join:[ 99 ] (* a contact that never answers: retries re-arm *)
      ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let by_hand = mk () in
  let driven = mk () in
  let hand_sent = ref [] in
  let drv_sent = ref [] in
  let driver =
    Transport.Driver.create
      ~metrics:(Obs.Metrics.create ())
      ~send:(fun ~dst bytes -> drv_sent := (dst, bytes) :: !drv_sent)
      driven
  in
  let id = Id.name_hash "parity" in
  let events =
    [
      (0., I3.Engine.Insert_trigger (I3.Trigger.to_host ~id ~owner:0xaa));
      (40., I3.Engine.Tick);
      ( 80.,
        I3.Engine.Send_packet
          (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"x" ()) );
      (200., I3.Engine.Tick);
      (400., I3.Engine.Tick);
    ]
  in
  List.iter
    (fun (now, ev) ->
      let effs = I3.Engine.step by_hand ~now ev in
      hand_sent := List.rev_append (effect_bytes effs) !hand_sent;
      Transport.Driver.step driver ~now ev)
    events;
  let hand = List.rev !hand_sent and drv = List.rev !drv_sent in
  Alcotest.(check int) "same send count" (List.length hand) (List.length drv);
  List.iter2
    (fun (d1, b1) (d2, b2) ->
      Alcotest.(check int) "same dst" d1 d2;
      Alcotest.(check string) "same bytes" b1 b2)
    hand drv;
  (* The driver tracked the engine's next deadline. *)
  Alcotest.(check bool) "driver armed a deadline" true
    (Transport.Driver.next_due driver <> None)

(* --- two engines, in-memory loopback: the ring forms --- *)

let test_loopback_ring_forms () =
  let metrics = Obs.Metrics.create () in
  let addr_a = 1 and addr_b = 2 in
  let a =
    I3.Engine.create ~seed:1 ~addr:addr_a
      ~id:(Id.routing_key (Id.name_hash "node-a"))
      ~chord_config:fast_chord ~metrics ()
  in
  let b =
    I3.Engine.create ~seed:2 ~addr:addr_b
      ~id:(Id.routing_key (Id.name_hash "node-b"))
      ~join:[ addr_a ] ~chord_config:fast_chord ~metrics ()
  in
  let engine_at addr = if addr = addr_a then a else b in
  (* Interpret effects as a perfect in-memory network: every Send is
     re-decoded and stepped into the destination engine at the same
     instant. *)
  let rec interpret now src effs =
    List.iter
      (function
        | I3.Engine.Set_timer _ | I3.Engine.Deliver _ -> ()
        | eff -> (
            match I3.Engine.encode_effect eff with
            | None -> ()
            | Some (dst, bytes) when dst = addr_a || dst = addr_b -> (
                match I3.Engine.decode bytes with
                | Ok frame ->
                    interpret now dst
                      (I3.Engine.step (engine_at dst) ~now
                         (I3.Engine.Frame { src; frame }))
                | Error e -> Alcotest.fail ("loopback decode failed: " ^ e))
            | Some _ -> ()))
      effs
  in
  let now = ref 0. in
  while !now < 2_000. do
    interpret !now addr_a (I3.Engine.step a ~now:!now I3.Engine.Tick);
    interpret !now addr_b (I3.Engine.step b ~now:!now I3.Engine.Tick);
    now := !now +. 10.
  done;
  let succ_addr e =
    Option.map
      (fun p -> p.Chord.Protocol.addr)
      (Chord.Protocol.successor (I3.Engine.chord e))
  in
  Alcotest.(check (option int)) "A's successor is B" (Some addr_b)
    (succ_addr a);
  Alcotest.(check (option int)) "B's successor is A" (Some addr_a)
    (succ_addr b);
  (* And the overlay routes across it: a trigger inserted at A for an
     id owned by B must ack back, crossing the loopback "wire". *)
  let rng = Rng.of_int 5 in
  let owned_by id node =
    let k = Id.routing_key id in
    let na = I3.Engine.id a and nb = I3.Engine.id b in
    let owner =
      match (Id.compare na k >= 0, Id.compare nb k >= 0) with
      | true, false -> na
      | false, true -> nb
      | (true, true | false, false) -> if Id.compare na nb <= 0 then na else nb
    in
    Id.equal owner node
  in
  let rec pick () =
    let id = Id.random rng in
    if owned_by id (I3.Engine.id b) then id else pick ()
  in
  let id = pick () in
  let host = 0xd00d in
  interpret !now addr_a
    (I3.Engine.step a ~now:!now
       (I3.Engine.Insert_trigger (I3.Trigger.to_host ~id ~owner:host)));
  (* The trigger must live at B, not A. *)
  let at_b =
    I3.Trigger_table.find_matches
      (I3.Server.triggers (I3.Engine.server b))
      ~now:!now id
    |> List.length
  in
  Alcotest.(check bool) "trigger stored at the owner across the wire" true
    (at_b > 0)

(* --- lifetimes off the wire are capped --- *)

(* Any peer can send a [Cache_push] or a [Replica]; a lifetime of
   infinity or 1e300 must not pin the trigger.  Each is clamped to the
   server's own bound (and counted), so the entry is gone once that
   bound and one sweep have passed. *)
let test_wire_lifetimes_capped () =
  let metrics = Obs.Metrics.create () in
  let e = I3.Engine.create ~seed:9 ~addr:7 ~metrics () in
  let srv = I3.Engine.server e in
  let cfg = I3.Server.config srv in
  let tr name = I3.Trigger.to_host ~id:(Id.name_hash name) ~owner:0x77 in
  let feed now frame =
    ignore (I3.Engine.step e ~now (I3.Engine.Frame { src = 0x55; frame }))
  in
  feed 0. (I3.Message.Cache_push { triggers = [ (tr "pinned", infinity) ] });
  feed 0. (I3.Message.Replica { trigger = tr "mirror"; lifetime = 1e300 });
  let size table = I3.Trigger_table.size (table srv) in
  Alcotest.(check int) "cached copy stored" 1 (size I3.Server.cached_triggers);
  Alcotest.(check int) "replica stored" 1 (size I3.Server.replica_triggers);
  let after cap = cap +. cfg.I3.Server.sweep_period in
  ignore
    (I3.Engine.step e ~now:(after cfg.I3.Server.cache_push_lifetime)
       I3.Engine.Tick);
  Alcotest.(check int) "cached copy gone after its cap" 0
    (size I3.Server.cached_triggers);
  ignore
    (I3.Engine.step e ~now:(after cfg.I3.Server.trigger_lifetime)
       I3.Engine.Tick);
  Alcotest.(check int) "replica gone after its cap" 0
    (size I3.Server.replica_triggers);
  let clamps kind =
    Obs.Metrics.counter metrics
      ~labels:[ ("instance", "srv@7"); ("kind", kind) ]
      "i3.lifetime_clamps"
    |> Obs.Metrics.counter_value
  in
  Alcotest.(check (pair int int)) "both clamps counted" (1, 1)
    (clamps "cache_push", clamps "replica")

let () =
  Alcotest.run "engine"
    [
      ( "sans-io",
        [
          Alcotest.test_case "seeded step is deterministic" `Quick
            test_determinism;
          Alcotest.test_case "decode dispatches by kind byte" `Quick
            test_decode_dispatch;
          Alcotest.test_case "insert then deliver (Fig. 3)" `Quick
            test_insert_then_deliver;
          Alcotest.test_case "wire lifetimes are capped" `Quick
            test_wire_lifetimes_capped;
          test_step_total;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "hand vs Transport.Driver parity" `Quick
            test_driver_parity;
          Alcotest.test_case "loopback ring forms + routes" `Quick
            test_loopback_ring_forms;
        ] );
    ]
