(* The end-host protocol core, driven directly: every input is an event
   at a chosen [now], every output an effect, so the retry, refresh,
   re-homing, cache and challenge rules are checked to the millisecond
   without a network or a clock. *)

module E = I3.Host_engine

let gw1 = 101
let gw2 = 102
let server = 201
let me = 7
let id_of s = Id.name_hash ("host-engine-" ^ s)
let trigger = I3.Trigger.to_host ~id:(id_of "t") ~owner:me
let cfg = { E.refresh_period = 1_000.; cache_ttl = 60_000. }

let engine ?(gateways = [ gw1 ]) ?(seed = 1) () =
  E.create ~addr:me ~gateways ~rng:(Rng.of_int seed) ~config:cfg ()

let timer effects =
  List.find_map (function E.Set_timer at -> Some at | _ -> None) effects

let inserts effects =
  List.filter_map
    (function E.Send (dst, I3.Message.Insert _) -> Some dst | _ -> None)
    effects

let notices effects =
  List.filter_map (function E.Binding (_, n) -> Some n | _ -> None) effects

(* Step [Tick] at every deadline the core asks for, from [from] through
   [until]; returns each step's time and effects. *)
let drive t ~from ~until =
  let rec go at acc =
    if at > until then List.rev acc
    else
      let effects = E.step t ~now:at E.Tick in
      let acc = (at, effects) :: acc in
      match timer effects with Some next -> go next acc | None -> List.rev acc
  in
  go from []

let frame t ~now frame = E.step t ~now (Frame { src = server; frame })
let ack t ~now = frame t ~now (Insert_ack { trigger; server })

(* Times of the inserts a never-acked binding sends in [0, until]. *)
let insert_times t ~until =
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  0.
  :: List.concat_map
       (fun (at, effects) -> List.map (fun _ -> at) (inserts effects))
       (drive t ~from:E.attempt_timeout_ms ~until)

let test_retry_schedule () =
  List.iter
    (fun seed ->
      let times =
        Array.of_list (insert_times (engine ~seed ()) ~until:30_000.)
      in
      for k = 1 to Array.length times - 1 do
        let nominal = Float.min (50. *. (2. ** float_of_int (k - 1))) 2_000. in
        let backoff = times.(k) -. times.(k - 1) -. E.attempt_timeout_ms in
        if backoff < 0.8 *. nominal -. 1e-9 || backoff > 1.2 *. nominal +. 1e-9
        then
          Alcotest.failf "seed %d retry %d: backoff %.1f ms not %.0f ms ±20%%" seed
            k backoff nominal
      done;
      Alcotest.(check bool) "reaches the 2 s cap" true (Array.length times > 8))
    [ 1; 2; 3; 4; 5 ]

let test_timed_out_at_deadline () =
  let t = engine () in
  let first = E.step t ~now:0. (Insert_trigger trigger) in
  Alcotest.(check (list int)) "insert to the gateway" [ gw1 ] (inserts first);
  Alcotest.(check (option (float 0.))) "ack deadline" (Some 250.) (timer first);
  let missed = E.step t ~now:250. Tick in
  Alcotest.(check bool) "timed out" true (notices missed = [ E.Timed_out ]);
  Alcotest.(check (list int)) "no send at the deadline" [] (inserts missed);
  match timer missed with
  | Some at ->
      Alcotest.(check bool) "retry after 40..60 ms" true (at >= 290. && at <= 310.)
  | None -> Alcotest.fail "no retry timer"

let test_rehome_drops_cache () =
  let t = engine () in
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  ignore (ack t ~now:10.);
  Alcotest.(check (option int)) "ack fills the cache" (Some server)
    (E.cached_server t ~now:10. trigger.id);
  let steps = drive t ~from:1_010. ~until:3_000. in
  let sends = List.concat_map (fun (_, e) -> inserts e) steps in
  let all = List.concat_map (fun (_, e) -> notices e) steps in
  (match sends with
  | a :: b :: c :: _ ->
      Alcotest.(check (list int)) "two at the cached server, then the gateway"
        [ server; server; gw1 ] [ a; b; c ]
  | _ -> Alcotest.fail "expected at least three inserts");
  Alcotest.(check bool) "rehomed from the cached server" true
    (List.mem (E.Rehomed server) all);
  Alcotest.(check (option int)) "cache entry dropped" None
    (E.cached_server t ~now:3_000. trigger.id)

let test_gateway_rotation () =
  let t = engine ~gateways:[ gw1; gw2 ] () in
  let first = E.step t ~now:0. (Insert_trigger trigger) in
  let steps = drive t ~from:250. ~until:4_000. in
  let dsts = inserts first @ List.concat_map (fun (_, e) -> inserts e) steps in
  Alcotest.(check (list int)) "five misses at gw1, then gw2"
    [ gw1; gw1; gw1; gw1; gw1; gw2 ]
    (List.filteri (fun i _ -> i < 6) dsts);
  Alcotest.(check int) "current gateway" gw2 (E.gateway t)

let count_gave_up steps =
  List.length
    (List.filter (( = ) E.Gave_up)
       (List.concat_map (fun (_, e) -> notices e) steps))

let test_gave_up_once () =
  let t = engine () in
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  let steps = drive t ~from:250. ~until:60_000. in
  Alcotest.(check int) "one gave-up per insert" 1 (count_gave_up steps);
  Alcotest.(check bool) "still retrying" true
    (List.exists (fun (at, e) -> at > 50_000. && inserts e <> []) steps);
  ignore (E.step t ~now:60_000. (Insert_trigger trigger));
  let again = drive t ~from:60_250. ~until:120_000. in
  Alcotest.(check int) "a re-insert may give up once more" 1
    (count_gave_up again);
  (* Refreshes never report gave-up: only a fresh insert does. *)
  let t = engine () in
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  ignore (ack t ~now:10.);
  Alcotest.(check int) "no gave-up for a failing refresh" 0
    (count_gave_up (drive t ~from:1_010. ~until:60_000.))

let test_refresh_due () =
  let t = engine () in
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  ignore (ack t ~now:42.);
  let steps = drive t ~from:250. ~until:1_042. in
  let sends =
    List.concat_map (fun (at, e) -> List.map (fun _ -> at) (inserts e)) steps
  in
  Alcotest.(check (list (float 0.))) "refresh at last_ack + refresh_period"
    [ 1_042. ] sends;
  Alcotest.(check bool) "reported as a refresh" true
    (List.exists
       (fun (_, e) -> List.mem (E.Refreshed server) (notices e))
       steps)

let test_cache_fill () =
  let t = engine () in
  let other = id_of "other" in
  let stranger = I3.Trigger.to_host ~id:other ~owner:me in
  ignore (frame t ~now:0. (Insert_ack { trigger = stranger; server }));
  Alcotest.(check (option int)) "ack for an unknown binding ignored" None
    (E.cached_server t ~now:0. other);
  let data = I3.Packet.make ~stack:[ I3.Packet.Sid other ] ~payload:"x" () in
  (match E.step t ~now:1. (Send_packet data) with
  | [ E.Send (dst, I3.Message.Data p) ] ->
      Alcotest.(check int) "miss goes via the gateway" gw1 dst;
      Alcotest.(check bool) "refresh flag set" true p.refresh;
      Alcotest.(check (option int)) "sender set" (Some me) p.sender
  | _ -> Alcotest.fail "expected one Data send");
  ignore (frame t ~now:2. (Cache_info { prefix = other; server }));
  Alcotest.(check (option int)) "Cache_info fills the cache" (Some server)
    (E.cached_server t ~now:2. other);
  (match E.step t ~now:3. (Send_packet data) with
  | [ E.Send (dst, I3.Message.Data _) ] ->
      Alcotest.(check int) "hit goes direct" server dst
  | _ -> Alcotest.fail "expected one Data send");
  Alcotest.(check (option int)) "entry expires after cache_ttl" None
    (E.cached_server t ~now:(2. +. cfg.cache_ttl) other);
  ignore (E.step t ~now:4. (Insert_trigger trigger));
  ignore (ack t ~now:5.);
  Alcotest.(check (option int)) "Insert_ack fills the cache" (Some server)
    (E.cached_server t ~now:5. trigger.id)

let test_challenge () =
  let t = engine () in
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  let forged = I3.Trigger.to_host ~id:(id_of "forged") ~owner:me in
  let ignored = frame t ~now:1. (Challenge { trigger = forged; token = "x" }) in
  Alcotest.(check int) "challenge for a foreign binding ignored" 0
    (List.length
       (List.filter (function E.Set_timer _ -> false | _ -> true) ignored));
  match frame t ~now:2. (Challenge { trigger; token = "tok" }) with
  | E.Send (dst, I3.Message.Insert { token; _ }) :: _ ->
      Alcotest.(check int) "answer via the gateway" gw1 dst;
      Alcotest.(check (option string)) "answer carries the token" (Some "tok")
        token
  | _ -> Alcotest.fail "expected the insert to be re-sent with the token"

let test_remove_stops_refresh () =
  let t = engine () in
  ignore (E.step t ~now:0. (Insert_trigger trigger));
  ignore (ack t ~now:10.);
  (match E.step t ~now:20. (Remove_trigger trigger) with
  | E.Send (dst, I3.Message.Remove _) :: _ ->
      Alcotest.(check int) "Remove to the cached server" server dst
  | _ -> Alcotest.fail "expected a Remove");
  let steps = drive t ~from:250. ~until:10_000. in
  Alcotest.(check (list int)) "no refresh after remove" []
    (List.concat_map (fun (_, e) -> inserts e) steps);
  Alcotest.(check (list int)) "no bindings" []
    (List.map (fun _ -> 0) (E.triggers t));
  Alcotest.(check (option (float 0.))) "no timer left" None
    (timer (E.step t ~now:10_000. Tick))

let () =
  Alcotest.run "host-engine"
    [
      ( "retry",
        [
          Alcotest.test_case "schedule and jitter bounds" `Quick
            test_retry_schedule;
          Alcotest.test_case "timed out at the ack deadline" `Quick
            test_timed_out_at_deadline;
          Alcotest.test_case "re-home after two misses" `Quick
            test_rehome_drops_cache;
          Alcotest.test_case "gateway rotation after five misses" `Quick
            test_gateway_rotation;
          Alcotest.test_case "gave-up once per insert" `Quick test_gave_up_once;
        ] );
      ( "soft state",
        [
          Alcotest.test_case "refresh due at last ack + period" `Quick
            test_refresh_due;
          Alcotest.test_case "remove stops the refresh" `Quick
            test_remove_stops_refresh;
        ] );
      ( "cache and challenges",
        [
          Alcotest.test_case "Insert_ack and Cache_info fill the cache" `Quick
            test_cache_fill;
          Alcotest.test_case "challenges only for own bindings" `Quick
            test_challenge;
        ] );
    ]
