(* Wire-format coverage: generator-driven roundtrips for every message
   kind (i3 + Chord), the [decoded_length] = |encode| property, negative
   decodes for truncation / depth / tag corruption, a deterministic
   seeded mutation fuzzer over the whole corpus (decoders must return
   [Error] — never raise, never over-read), and the byte-level
   [Transport.Sim] smoke test. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng0 = Rng.of_int 4242

(* --- generators --- *)

let gen_id =
  QCheck2.Gen.(
    map (fun n -> Id.name_hash (string_of_int n)) (int_range 0 1_000_000))

let gen_addr = QCheck2.Gen.int_range 0 0xffff_ffff
let gen_entry =
  QCheck2.Gen.(
    oneof
      [
        map (fun id -> I3.Packet.Sid id) gen_id;
        map (fun a -> I3.Packet.Saddr a) gen_addr;
      ])

let gen_stack depth_min =
  QCheck2.Gen.(
    int_range depth_min I3.Packet.max_stack_depth >>= fun n ->
    list_size (return n) gen_entry)

let gen_payload = QCheck2.Gen.(string_size (int_range 0 64))

let gen_packet =
  QCheck2.Gen.(
    gen_stack 1 >>= fun stack ->
    gen_payload >>= fun payload ->
    bool >>= fun refresh ->
    bool >>= fun match_required ->
    opt gen_addr >>= fun sender ->
    opt (pair gen_addr gen_id) >>= fun prev ->
    int_range 0 255 >>= fun ttl ->
    int_range 0 0xffffff >>= fun trace ->
    return
      {
        (I3.Packet.make ?sender ~refresh ~match_required ~ttl ~trace ~stack
           ~payload ())
        with
        I3.Packet.prev_trigger = prev;
      })

let gen_trigger =
  QCheck2.Gen.(
    gen_id >>= fun id ->
    gen_stack 1 >>= fun stack ->
    gen_addr >>= fun owner -> return (I3.Trigger.make ~id ~stack ~owner))

let gen_token = QCheck2.Gen.(string_size (int_range 0 32))
let gen_lifetime = QCheck2.Gen.(map float_of_int (int_range 0 100_000))

(* Stats snapshots: all floats drawn finite (the codec carries IEEE
   doubles bit-exactly, but [nan <> nan] would break [=] roundtrips) and
   label lists within [Wire.Layout.max_stats_labels] (the encoder
   rejects wider ones by design). *)
let gen_finite = QCheck2.Gen.(map (fun n -> float_of_int n /. 16.) (int_range (-1_000_000) 1_000_000))
let gen_label = QCheck2.Gen.(pair (string_size (int_range 0 12)) (string_size (int_range 0 12)))

let gen_sample =
  QCheck2.Gen.(
    string_size (int_range 1 24) >>= fun name ->
    list_size (int_range 0 Wire.Layout.max_stats_labels) gen_label
    >>= fun labels ->
    oneof
      [
        map (fun c -> Obs.Metrics.Counter c) (int_range 0 1_000_000_000);
        map (fun g -> Obs.Metrics.Gauge g) gen_finite;
        (int_range 0 1_000_000 >>= fun count ->
         gen_finite >>= fun sum ->
         gen_finite >>= fun p50 ->
         gen_finite >>= fun p90 ->
         gen_finite >>= fun p99 ->
         gen_finite >>= fun max ->
         return (Obs.Metrics.Histogram { count; sum; p50; p90; p99; max }));
      ]
    >>= fun value -> return { Obs.Metrics.name; labels; value })

let gen_trace_event =
  QCheck2.Gen.(
    int_range 1 0xfff_ffff >>= fun trace ->
    gen_finite >>= fun time ->
    int_range 0 0xffff_ffff >>= fun site ->
    oneof
      [
        oneofl
          Obs.Trace.
            [ Send; Enqueue; Relay; Cache_hit; Trigger_match; Deliver ];
        map (fun c -> Obs.Trace.Drop c) (string_size (int_range 0 16));
      ]
    >>= fun kind -> return { Obs.Trace.trace; time; site; kind })

let gen_stats_request =
  QCheck2.Gen.(
    int_range 0 0xffffff >>= fun nonce ->
    string_size (int_range 0 24) >>= fun prefix ->
    bool >>= fun drain ->
    return (I3.Message.Stats_request { nonce; prefix; drain }))

let gen_stats_response =
  QCheck2.Gen.(
    int_range 0 0xffffff >>= fun nonce ->
    gen_addr >>= fun server ->
    list_size (int_range 0 8) gen_sample >>= fun samples ->
    list_size (int_range 0 8) gen_trace_event >>= fun events ->
    return (I3.Message.Stats_response { nonce; server; samples; events }))

let gen_message =
  QCheck2.Gen.(
    oneof
      [
        map (fun p -> I3.Message.Data p) gen_packet;
        (gen_trigger >>= fun trigger ->
         opt gen_token >>= fun token ->
         return (I3.Message.Insert { trigger; token }));
        map (fun trigger -> I3.Message.Remove { trigger }) gen_trigger;
        (gen_trigger >>= fun trigger ->
         gen_token >>= fun token ->
         return (I3.Message.Challenge { trigger; token }));
        (gen_trigger >>= fun trigger ->
         gen_addr >>= fun server ->
         return (I3.Message.Insert_ack { trigger; server }));
        (gen_id >>= fun prefix ->
         gen_addr >>= fun server ->
         return (I3.Message.Cache_info { prefix; server }));
        (list_size (int_range 0 5) (pair gen_trigger gen_lifetime)
        >>= fun triggers -> return (I3.Message.Cache_push { triggers }));
        (gen_id >>= fun id ->
         gen_id >>= fun dead -> return (I3.Message.Pushback { id; dead }));
        (gen_trigger >>= fun trigger ->
         gen_lifetime >>= fun lifetime ->
         return (I3.Message.Replica { trigger; lifetime }));
        (gen_stack 0 >>= fun stack ->
         gen_payload >>= fun payload ->
         int_range 0 0xffffff >>= fun trace ->
         return (I3.Message.Deliver { stack; payload; trace }));
        map (fun nonce -> I3.Message.Ping { nonce }) (int_range 0 0xffffff);
        (int_range 0 0xffffff >>= fun nonce ->
         gen_addr >>= fun server ->
         int_range 0 100_000 >>= fun triggers ->
         gen_lifetime >>= fun uptime_ms ->
         return (I3.Message.Pong { nonce; server; triggers; uptime_ms }));
        gen_stats_request;
        gen_stats_response;
      ])

let gen_peer =
  QCheck2.Gen.(
    gen_id >>= fun id ->
    gen_addr >>= fun addr -> return { Chord.Protocol.id; addr })

let gen_chord_msg =
  QCheck2.Gen.(
    oneof
      [
        (gen_id >>= fun key ->
         int_range 0 1_000_000 >>= fun token ->
         gen_addr >>= fun reply_to ->
         return (Chord.Protocol.Lookup_step { key; token; reply_to }));
        (int_range 0 1_000_000 >>= fun token ->
         gen_peer >>= fun p ->
         bool >>= fun done_ ->
         return
           (Chord.Protocol.Lookup_reply
              {
                token;
                result =
                  (if done_ then Chord.Protocol.Done p
                   else Chord.Protocol.Next p);
              }));
        (int_range 0 1_000_000 >>= fun token ->
         gen_addr >>= fun reply_to ->
         return (Chord.Protocol.Get_state { token; reply_to }));
        (int_range 0 1_000_000 >>= fun token ->
         gen_peer >>= fun self ->
         opt gen_peer >>= fun pred ->
         list_size (int_range 0 8) gen_peer >>= fun succs ->
         return (Chord.Protocol.State { token; self; pred; succs }));
        (gen_peer >>= fun who ->
         list_size (int_range 0 8) gen_peer >>= fun chain ->
         return (Chord.Protocol.Notify { who; chain }));
      ])

(* --- roundtrips --- *)

let test_message_roundtrip =
  qtest ~count:500 "i3 message roundtrip" gen_message (fun m ->
      match I3.Codec.decode (I3.Codec.encode m) with
      | Ok m' -> I3.Message.equal m m'
      | Error _ -> false)

let test_chord_roundtrip =
  qtest ~count:500 "chord message roundtrip" gen_chord_msg (fun m ->
      match Chord.Codec.decode (Chord.Codec.encode m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let test_data_frame_is_packet =
  qtest "Data frame = Packet.encode" gen_packet (fun p ->
      I3.Codec.encode (I3.Message.Data p) = I3.Packet.encode p)

(* --- decoded_length (satellite 1) --- *)

let test_decoded_length =
  qtest ~count:500 "decoded_length = |encode|" gen_packet (fun p ->
      I3.Packet.decoded_length (I3.Packet.encode p)
      = Ok (String.length (I3.Packet.encode p)))

let test_decoded_length_negative () =
  let r = Rng.copy rng0 in
  let p =
    I3.Packet.make
      ~stack:[ I3.Packet.Sid (Id.random r); I3.Packet.Saddr 7 ]
      ~payload:"xyz" ()
  in
  let wire = I3.Packet.encode p in
  (* Truncations anywhere in the header or body must fail, not clamp. *)
  for cut = 0 to I3.Packet.header_bytes + 2 do
    match I3.Packet.decoded_length (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded_length accepted a %d-byte prefix" cut
  done

let test_decode_rejects_deep_stack () =
  (* Hand-craft a header claiming more entries than max_stack_depth: the
     decoder must reject the count outright (not clamp), whatever bytes
     follow. *)
  let r = Rng.copy rng0 in
  let good =
    I3.Packet.encode
      (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random r) ] ~payload:"" ())
  in
  let deep = Bytes.of_string good in
  Bytes.set deep 4 (Char.chr (I3.Packet.max_stack_depth + 1));
  (match I3.Packet.decode (Bytes.to_string deep) with
  | Error e ->
      Alcotest.(check bool) "depth error" true (e = "bad stack depth")
  | Ok _ -> Alcotest.fail "decode clamped an over-deep stack");
  Bytes.set deep 4 '\x00';
  match I3.Packet.decode (Bytes.to_string deep) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted a zero-depth stack"

let test_decode_rejects_trailing () =
  let r = Rng.copy rng0 in
  let good =
    I3.Packet.encode
      (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random r) ] ~payload:"pp" ())
  in
  match I3.Packet.decode (good ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted trailing bytes"

(* --- deterministic mutation fuzzer ---

   Over a corpus of every message kind (both protocols): byte flips,
   truncations and length-field corruption, all drawn from a seeded
   [Util.Rng].  The decoders must return — [Ok] (a mutation may be
   semantically invisible) or [Error] — but never raise and never read
   out of bounds.  [I3_FUZZ_ITERS] scales the iteration count (CI runs
   >= 10_000). *)

let fuzz_iters =
  match Sys.getenv_opt "I3_FUZZ_ITERS" with
  | Some s -> (try max 1000 (int_of_string s) with _ -> 2_000)
  | None -> 2_000

(* Adversarial-but-valid frames a hostile peer could send: zero-TTL
   data, zero / negative / NaN lifetimes.  They must decode cleanly
   here (and the engine must survive them — see test_engine), so the
   fuzzer also mutates around these shapes. *)
let hostile rng =
  let tr () =
    I3.Trigger.to_host ~id:(Id.random rng) ~owner:(Rng.int rng 0xffff)
  in
  [
    I3.Codec.encode
      (I3.Message.Data
         (I3.Packet.make
            ~stack:[ I3.Packet.Sid (Id.random rng) ]
            ~payload:"z" ~ttl:0 ()));
    I3.Codec.encode (I3.Message.Replica { trigger = tr (); lifetime = 0. });
    I3.Codec.encode
      (I3.Message.Replica { trigger = tr (); lifetime = -30_000. });
    I3.Codec.encode
      (I3.Message.Replica { trigger = tr (); lifetime = Float.nan });
    I3.Codec.encode
      (I3.Message.Cache_push
         { triggers = [ (tr (), 0.); (tr (), -1.); (tr (), Float.nan) ] });
  ]

let corpus rng =
  let gen g = QCheck2.Gen.generate1 ~rand:(Random.State.make [| Rng.int rng 1_000_000 |]) g in
  List.concat
    [
      List.init 20 (fun _ -> I3.Codec.encode (gen gen_message));
      List.init 20 (fun _ -> Chord.Codec.encode (gen gen_chord_msg));
      List.init 10 (fun _ -> I3.Packet.encode (gen gen_packet));
      hostile rng;
    ]

let mutate rng s =
  let s = Bytes.of_string s in
  let n = Bytes.length s in
  match Rng.int rng 4 with
  | 0 when n > 0 ->
      (* flip a byte *)
      Bytes.set s (Rng.int rng n) (Char.chr (Rng.int rng 256));
      Bytes.to_string s
  | 1 when n > 0 ->
      (* truncate *)
      Bytes.sub_string s 0 (Rng.int rng n)
  | 2 ->
      (* extend with junk *)
      Bytes.to_string s ^ String.init (1 + Rng.int rng 8) (fun _ -> Char.chr (Rng.int rng 256))
  | _ when n > 4 ->
      (* corrupt a plausible length/count field: one of the first 16
         bytes gets an extreme value *)
      Bytes.set s (Rng.int rng (min 16 n)) (if Rng.int rng 2 = 0 then '\xff' else '\x00');
      Bytes.to_string s
  | _ -> Bytes.to_string s

let test_hostile_corpus_decodes () =
  let rng = Rng.of_int 424242 in
  List.iteri
    (fun i bytes ->
      match I3.Codec.decode bytes with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "hostile frame %d rejected: %s" i e)
    (hostile rng)

let test_mutation_fuzz () =
  let rng = Rng.of_int 20260807 in
  let corpus = Array.of_list (corpus rng) in
  let checked = ref 0 in
  for _ = 1 to fuzz_iters do
    let base = corpus.(Rng.int rng (Array.length corpus)) in
    let mutant = mutate rng base in
    (* Any raise here fails the test with a backtrace. *)
    (match I3.Codec.decode mutant with Ok _ | Error _ -> ());
    (match Chord.Codec.decode mutant with Ok _ | Error _ -> ());
    (match I3.Packet.decode mutant with Ok _ | Error _ -> ());
    (match I3.Packet.decoded_length mutant with
    | Ok n ->
        (* A length claim must never exceed what was actually present. *)
        if n > String.length mutant then
          Alcotest.failf "decoded_length over-read: %d > %d" n
            (String.length mutant)
    | Error _ -> ());
    incr checked
  done;
  Alcotest.(check int) "iterations" fuzz_iters !checked

(* --- Wire.Io primitives --- *)

let test_io_bounds () =
  let open Wire.Io in
  let r = reader "ab" in
  (match u32 r "x" with
  | Error e -> Alcotest.(check string) "u32 short" "truncated x" e
  | Ok _ -> Alcotest.fail "u32 over-read");
  (* the failed read must not consume anything *)
  (match u16 r "y" with
  | Ok v -> Alcotest.(check int) "u16" 0x6162 v
  | Error e -> Alcotest.fail e);
  (match expect_end r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match take (reader "abc") (-1) "neg" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative take accepted"

let test_io_list_cap () =
  let open Wire.Io in
  let r = reader (String.make 64 'x') in
  match list_of r ~count:40 ~max:32 "peers" (fun r -> u8 r "b") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "list_of accepted count > max"

(* Fixed-width integers and floats: random values plus the boundaries
   where a sign bit or a box could leak in — top bits set, negative
   [Int64]s, [0xffffffff], and quiet, negative and signalling NaN bit
   patterns, compared bit for bit. *)
let gen_io_values =
  QCheck2.Gen.(
    let u16 = oneof [ int_range 0 0xffff; oneofl [ 0; 0x7fff; 0x8000; 0xffff ] ] in
    let u32 =
      oneof
        [
          int_range 0 0xffff_ffff;
          oneofl [ 0; 0x7fff_ffff; 0x8000_0000; 0xffff_fffe; 0xffff_ffff ];
        ]
    in
    let u64 =
      oneof
        [
          int64;
          oneofl
            [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0xffff_ffffL; 0x1_0000_0000L ];
        ]
    in
    let f64_bits =
      oneof
        [
          u64;
          oneofl
            [
              0x7ff8_0000_0000_0000L (* quiet NaN *);
              0xfff8_0000_0000_0001L (* negative NaN with payload *);
              0x7ff0_0000_0000_0001L (* signalling NaN *);
              0x7ff0_0000_0000_0000L (* +inf *);
              0x8000_0000_0000_0000L (* -0. *);
            ];
        ]
    in
    tup4 u16 u32 u64 f64_bits)

let test_io_int_roundtrip =
  qtest ~count:1000 "put/read u16 u32 u64 f64" gen_io_values
    (fun (a, b, c, d) ->
      let open Wire.Io in
      let buf = Buffer.create 22 in
      put_u16 buf a;
      put_u32 buf b;
      put_u64 buf c;
      put_f64 buf (Int64.float_of_bits d);
      let r = reader (Buffer.contents buf) in
      Buffer.length buf = 22
      && u16 r "a" = Ok a
      && u32 r "b" = Ok b
      && u64 r "c" = Ok c
      && (match f64 r "d" with
         | Ok f -> Int64.equal (Int64.bits_of_float f) d
         | Error _ -> false)
      && expect_end r = Ok ())

(* Each data-header check, in the order [Packet.decode] makes them,
   with its exact message; [decoded_length] must agree. *)
let test_header_rejections () =
  let good =
    I3.Packet.encode
      (I3.Packet.make
         ~stack:[ I3.Packet.Sid (Id.random (Rng.copy rng0)) ]
         ~payload:"pp" ())
  in
  let with_byte off c =
    let b = Bytes.of_string good in
    Bytes.set b off c;
    Bytes.to_string b
  in
  let module L = Wire.Layout in
  let cases =
    [
      ("truncated header", String.sub good 0 (I3.Packet.header_bytes - 1));
      ("truncated header", "");
      ("bad magic", with_byte L.off_magic 'x');
      ("bad magic", with_byte (L.off_magic + 1) 'x');
      ("unknown version", with_byte L.off_version '\x02');
      ("not a data packet", with_byte L.off_flags (Char.chr L.first_kind));
      ("bad stack depth", with_byte L.off_stack_count '\x00');
      ( "bad stack depth",
        with_byte L.off_stack_count (Char.chr (I3.Packet.max_stack_depth + 1)) );
    ]
  in
  List.iter
    (fun (want, frame) ->
      (match I3.Packet.decode frame with
      | Error e -> Alcotest.(check string) ("decode: " ^ want) want e
      | Ok _ -> Alcotest.failf "decode accepted a frame wanting %S" want);
      match I3.Packet.decoded_length frame with
      | Error e -> Alcotest.(check string) ("decoded_length: " ^ want) want e
      | Ok _ -> Alcotest.failf "decoded_length accepted a frame wanting %S" want)
    cases

(* --- Sim byte transport --- *)

let test_sim_transport () =
  let engine = Engine.create () in
  let metrics = Obs.Metrics.create () in
  let rng = Rng.copy rng0 in
  let net =
    Net.create ~metrics ~label:"bytes" engine ~rng ~latency:(fun _ _ -> 1.) ()
  in
  let a = Transport.Sim.attach net ~site:0 in
  let b = Transport.Sim.attach net ~site:0 in
  let got = ref [] in
  Transport.Sim.set_handler b (fun ~src bytes -> got := (src, bytes) :: !got);
  let frame = I3.Codec.encode (I3.Message.Data (I3.Packet.make ~stack:[ I3.Packet.Saddr 9 ] ~payload:"pp" ())) in
  Transport.Sim.send a ~dst:(Transport.Sim.local_addr b) frame;
  Engine.run_for engine 10.;
  match !got with
  | [ (src, bytes) ] ->
      Alcotest.(check int) "src" (Transport.Sim.local_addr a) src;
      Alcotest.(check string) "frame intact" frame bytes
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

(* --- codec-level negatives --- *)

let test_codec_negatives () =
  let expect_err what s =
    match I3.Codec.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected decode error")
  in
  expect_err "empty" "";
  expect_err "short preamble" "i3";
  expect_err "bad magic" "XX\x01\x10";
  expect_err "bad version" "i3\x02\x10";
  expect_err "unknown kind" "i3\x01\x7f";
  expect_err "chord kind on i3 codec" "i3\x01\x20";
  let wire =
    I3.Codec.encode
      (I3.Message.Pushback
         { id = Id.name_hash "a"; dead = Id.name_hash "b" })
  in
  expect_err "truncated body" (String.sub wire 0 (String.length wire - 1));
  expect_err "trailing bytes" (wire ^ "!");
  match Chord.Codec.decode "i3\x01\x10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "i3 kind on chord codec: expected decode error"

(* --- status frames (telemetry plane) --- *)

let test_stats_roundtrip =
  qtest ~count:400 "stats frames roundtrip"
    QCheck2.Gen.(oneof [ gen_stats_request; gen_stats_response ])
    (fun m ->
      match I3.Codec.decode (I3.Codec.encode m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let sample_response =
  I3.Message.Stats_response
    {
      nonce = 7;
      server = 0xCAFE;
      samples =
        [
          {
            Obs.Metrics.name = "driver.frames";
            labels = [ ("instance", "127.0.0.1:4001") ];
            value = Obs.Metrics.Counter 3;
          };
          {
            Obs.Metrics.name = "driver.step_ms";
            labels = [];
            value =
              Obs.Metrics.Histogram
                { count = 2; sum = 3.; p50 = 1.; p90 = 2.; p99 = 2.; max = 2. };
          };
        ];
      events =
        [
          {
            Obs.Trace.trace = 9;
            time = 1.5;
            site = 4001;
            kind = Obs.Trace.Drop "ttl";
          };
        ];
    }

let test_stats_negatives () =
  let wire = I3.Codec.encode sample_response in
  (* Every strict prefix must fail: outer fields, the u32 blob length,
     and the blob's inner structure are all length-checked. *)
  for cut = 0 to String.length wire - 1 do
    match I3.Codec.decode (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "stats_response accepted a %d-byte prefix" cut
  done;
  (match I3.Codec.decode (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats_response accepted trailing bytes");
  (* Snapshot version byte sits after the preamble (4) + nonce (8) +
     server (8): an unknown version must be rejected, not guessed at. *)
  let b = Bytes.of_string wire in
  Bytes.set b 20 '\x02';
  (match I3.Codec.decode (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown snapshot version accepted");
  (* A request's drain flag is strictly 0/1. *)
  let req =
    I3.Codec.encode
      (I3.Message.Stats_request { nonce = 1; prefix = "engine."; drain = true })
  in
  let rb = Bytes.of_string req in
  Bytes.set rb (Bytes.length rb - 1) '\x07';
  match I3.Codec.decode (Bytes.to_string rb) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad drain flag accepted"

let test_stats_encode_caps () =
  let sample =
    {
      Obs.Metrics.name = "m";
      labels = [];
      value = Obs.Metrics.Counter 1;
    }
  in
  let too_many =
    List.init (Wire.Layout.max_stats_samples + 1) (fun _ -> sample)
  in
  (match
     I3.Codec.encode
       (I3.Message.Stats_response
          { nonce = 1; server = 2; samples = too_many; events = [] })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted > max_stats_samples");
  let wide =
    {
      sample with
      Obs.Metrics.labels =
        List.init
          (Wire.Layout.max_stats_labels + 1)
          (fun i -> (string_of_int i, "v"));
    }
  in
  match
    I3.Codec.encode
      (I3.Message.Stats_response
         { nonce = 1; server = 2; samples = [ wide ]; events = [] })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted > max_stats_labels"

let test_put_str32_guard () =
  let buf = Buffer.create 16 in
  let too_long = String.make (Wire.Layout.max_data_payload + 1) 'x' in
  (try
     Wire.Io.put_str32 buf too_long;
     Alcotest.fail "oversized put_str32 accepted"
   with Invalid_argument _ -> ());
  Wire.Io.put_str32 buf (String.make 8 'y');
  Alcotest.(check int) "in-range write lands" (4 + 8) (Buffer.length buf)

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          test_message_roundtrip;
          test_chord_roundtrip;
          test_data_frame_is_packet;
        ] );
      ( "decoded_length",
        [
          test_decoded_length;
          Alcotest.test_case "negatives" `Quick test_decoded_length_negative;
        ] );
      ( "negative decode",
        [
          Alcotest.test_case "deep stack rejected" `Quick
            test_decode_rejects_deep_stack;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_decode_rejects_trailing;
          Alcotest.test_case "header rejection messages" `Quick
            test_header_rejections;
          Alcotest.test_case "codec negatives" `Quick test_codec_negatives;
        ] );
      ( "stats frames",
        [
          test_stats_roundtrip;
          Alcotest.test_case "negatives" `Quick test_stats_negatives;
          Alcotest.test_case "encode caps" `Quick test_stats_encode_caps;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "hostile corpus decodes" `Quick
            test_hostile_corpus_decodes;
          Alcotest.test_case "seeded mutations" `Quick test_mutation_fuzz;
        ] );
      ( "io",
        [
          Alcotest.test_case "bounds" `Quick test_io_bounds;
          test_io_int_roundtrip;
          Alcotest.test_case "list cap" `Quick test_io_list_cap;
          Alcotest.test_case "put_str32 payload cap" `Quick
            test_put_str32_guard;
        ] );
      ( "transport",
        [ Alcotest.test_case "sim bytes" `Quick test_sim_transport ] );
    ]
