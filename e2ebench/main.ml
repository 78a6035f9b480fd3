(* End-to-end benchmark of bin/i3d over loopback UDP.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--i3d PATH]

   One run starts i3d unmodified as a child process (pinned to its own
   core when there are two), installs the workload's triggers over the
   wire, and drives it through a closed phase and an open phase.  With
   --trace 0 the last line of stdout is a JSON object carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics,
   which need an untraced run of i3d, a traced run of the same
   composition in a forked child (Traced), and direct calls into
   I3.Trigger_table.  Every Deliver is checked; the run exits non-zero
   when one carried wrong bytes, or when i3d reports decode errors or
   insert counts that disagree with the acks received.  See README.md. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let i3d = ref "_build/default/bin/i3d.exe"

let args =
  [
    ("--workload", Arg.Set_string workload, "unicast_64b | soft_state_100k | fanout8_1k");
    ("--seed", Arg.Set_int seed, "workload seed (default 1)");
    ("--seconds", Arg.Set_int seconds, "measured seconds per run (default 10)");
    ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ("--i3d", Arg.Set_string i3d, "daemon binary (default _build/default/bin/i3d.exe)");
  ]

let daemon_cpu = 1
let generator_cpu = 0

(* Set-up is timed several times per run and reported as a median: at
   least [min_setups] times, and again while all of them together took
   under [setup_budget_s], up to [max_setups].  A small workload's
   set-up is a few ms of process start, too noisy to time once. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 1.

(* The traced run measures each phase for at most this long: its
   ratios need far fewer samples than the end-to-end figures, and its
   span arrays are finite. *)
let traced_phase_ns = 2_500_000_000

(* Slices per phase: the rate and CPU figures are medians over these. *)
let slices = 20
let install_window = 256

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2ebench: " ^ s);
      exit 2)
    fmt

(* --- one run against a daemon --- *)

type daemon = { pid : int; setup_s : float; acks0 : int }

let start_i3d g ~pinned =
  let t0 = Clock.ns () in
  let acks0 = g.Loadgen.acks in
  let port = Proc.free_port () in
  let pid, line =
    Proc.spawn
      ?cpu:(if pinned then Some daemon_cpu else None)
      [| !i3d; "--host"; "127.0.0.1"; "--port"; string_of_int port |]
      ~ready_timeout:10.
  in
  if line <> Printf.sprintf "READY 127.0.0.1:%d" port then
    fail "i3d said %S instead of READY" line;
  Loadgen.set_daemon g ~port;
  Loadgen.install g ~window:install_window;
  { pid; setup_s = Clock.s_of_ns (Clock.ns () - t0); acks0 }

type run = {
  closed : Loadgen.phase;
  open_ : Loadgen.phase;
  cpu_closed_ns : int;  (** daemon CPU over the closed stretches *)
  gen_cpu_closed_ns : int;  (** the generator's own *)
  generator_bound : bool;
      (** in some closed stretch the generator was at least as busy as
          the daemon, so the daemon may not have set the rate *)
  snaps : Obs.Metrics.sample list * Obs.Metrics.sample list;
      (** driver.* and engine.* before and after, when scraped *)
}

let snapshot g = Loadgen.stats g ~prefix:"driver." @ Loadgen.stats g ~prefix:"engine."

(* The phases alternate: [rounds] closed stretches and [rounds] open
   ones, each [phase_ns / rounds] long, so that each phase samples the
   machine across the whole run rather than one half of it.  The
   daemon's CPU time is read around each stretch. *)
let rounds = 4

let drive g ~pid ~phase_ns ~scrape ~on_start =
  let cpu () = Proc.cpu_ns (string_of_int pid) in
  let self_cpu () = Proc.cpu_ns "self" in
  let duration_ns = phase_ns / rounds and slices = slices / rounds in
  let before = if scrape then snapshot g else [] in
  on_start ();
  let closed = ref [] and open_ = ref [] in
  let cc = ref 0 and gc = ref 0 and bound = ref false in
  for _ = 1 to rounds do
    let c0 = cpu () and g0 = self_cpu () in
    closed := Loadgen.closed g ~duration_ns ~slices ~cpu :: !closed;
    let dc = cpu () - c0 and dg = self_cpu () - g0 in
    cc := !cc + dc;
    gc := !gc + dg;
    if dg >= dc then bound := true;
    open_ := Loadgen.open_loop g ~duration_ns ~slices ~cpu :: !open_
  done;
  let after = if scrape then snapshot g else [] in
  {
    closed = Loadgen.merge (List.rev !closed);
    open_ = Loadgen.merge (List.rev !open_);
    cpu_closed_ns = !cc;
    gen_cpu_closed_ns = !gc;
    generator_bound = !bound;
    snaps = (before, after);
  }

(* --- reading i3d's registry --- *)

(* Sum over the samples named [name]: counter and gauge values,
   histogram sums. *)
let total samples name =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if s.Obs.Metrics.name <> name then acc
      else
        match s.Obs.Metrics.value with
        | Obs.Metrics.Counter n -> acc +. float_of_int n
        | Obs.Metrics.Gauge v -> acc +. v
        | Obs.Metrics.Histogram { sum; _ } -> acc +. sum)
    0. samples

(* Observations in the histograms [name] carrying [label]. *)
let hist_count samples name label =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      match s.Obs.Metrics.value with
      | Obs.Metrics.Histogram { count; _ }
        when s.Obs.Metrics.name = name && List.mem label s.Obs.Metrics.labels ->
          acc + count
      | _ -> acc)
    0 samples

(* Counters [name] carrying [label]. *)
let labelled samples name label =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      match s.Obs.Metrics.value with
      | Obs.Metrics.Counter n
        when s.Obs.Metrics.name = name && List.mem label s.Obs.Metrics.labels ->
          acc + n
      | _ -> acc)
    0 samples

(* The daemon's own view of the wire, after the timed window: decode
   errors must be zero and every accepted Insert must have come back as
   an ack.  Returns the problems found. *)
let audit g d =
  let wire = Loadgen.stats g ~prefix:"wire." in
  let inserts = Loadgen.stats g ~prefix:"i3.inserts" in
  let errors = int_of_float (total wire "wire.decode_errors") in
  let accepted = labelled inserts "i3.inserts" ("result", "accepted") in
  let rejected = labelled inserts "i3.inserts" ("result", "rejected") in
  let expired = labelled inserts "i3.inserts" ("result", "expired") in
  let acks = g.Loadgen.acks - d.acks0 in
  let problems =
    List.concat
      [
        (if errors <> 0 then [ Printf.sprintf "wire.decode_errors = %d" errors ] else []);
        (if accepted <> acks then
           [ Printf.sprintf "i3.inserts{accepted} = %d but %d acks arrived" accepted acks ]
         else []);
        (if rejected + expired <> 0 then
           [ Printf.sprintf "i3.inserts rejected %d, expired %d" rejected expired ]
         else []);
      ]
  in
  (errors, accepted, problems)

(* --- output --- *)

let json_metrics l =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       l)

let us_of_ns ns = float_of_int ns /. 1e3
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Deliver frames/s in each slice of a phase. *)
let slice_rates (p : Loadgen.phase) =
  Array.map (fun (s : Loadgen.slice) -> fi s.slice_delivers /. s.secs) p.slices

(* The daemon's CPU µs per completed op in each slice of a phase. *)
let slice_cpu (p : Loadgen.phase) =
  Array.map (fun (s : Loadgen.slice) -> ratio (us_of_ns s.cpu_ns) (fi s.slice_ops)) p.slices

let cpu_per_op p = Stats.median (slice_cpu p)

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || f = "dune"
           then [ p ]
           else [])
  in
  match List.concat_map files [ "lib"; "bin" ] with
  | exception Sys_error _ -> "unknown"
  | l -> Digest.to_hex (Digest.string (String.concat "\000" (List.map Digest.file l |> List.map Digest.to_hex)))

(* --- the traced child --- *)

type child = { cpid : int; ctl : out_channel; res : Unix.file_descr }

(* Fork before anything else is allocated, so the child's heap holds
   only what a freshly started daemon holds.  It waits on [ctl] until
   told to start serving. *)
let fork_traced ~payload =
  let ctl_r, ctl_w = Unix.pipe () and res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close ctl_w;
      Unix.close res_r;
      (* However long the untraced run takes: end of file means the
         parent has gone. *)
      (match input_line (Unix.in_channel_of_descr ctl_r) with
      | "go" -> Traced.serve ~res:res_w ~payload
      | _ | (exception (End_of_file | Sys_error _)) -> Unix._exit 0)
  | pid ->
      Unix.close ctl_r;
      Unix.close res_w;
      Proc.children := pid :: !Proc.children;
      { cpid = pid; ctl = Unix.out_channel_of_descr ctl_w; res = res_r }

let start_traced c g ~pinned =
  if pinned then ignore (Proc.pin c.cpid daemon_cpu);
  output_string c.ctl "go\n";
  flush c.ctl;
  match Proc.read_line_timeout c.res ~timeout:10. with
  | Some l when String.length l > 6 && String.sub l 0 6 = "READY " ->
      let port = int_of_string (String.sub l 6 (String.length l - 6)) in
      Loadgen.set_daemon g ~port;
      Loadgen.install g ~window:install_window
  | _ -> fail "traced daemon did not start"

let finish_traced c =
  Unix.kill c.cpid Sys.sigterm;
  let ic = Unix.in_channel_of_descr c.res in
  let (s : Traced.summary) = Marshal.from_channel ic in
  Proc.reap c.cpid;
  s

(* --- I3.Trigger_table called directly --- *)

(* Timings of [find_matches] and [insert], and the number of wrong
   answers: a match must return exactly the [fanout] triggers bound to
   the id, and refreshes must not change the table's size.  The wire
   check cannot see which trigger matched (every unicast trigger has the
   same stack), so this is where a wrong match shows. *)
let trie_micro (w : Workload.t) ~gen =
  let n = Workload.triggers w.Workload.spec and f = w.Workload.spec.Workload.fanout in
  let triggers = Array.init n (Workload.trigger w ~gen) in
  let tbl = I3.Trigger_table.create () in
  let life = 30_000. in
  Array.iter (fun tr -> I3.Trigger_table.insert tbl ~now:0. ~expires:life tr) triggers;
  let rng = Workload.id_stream w in
  let matches = 200_000 and inserts = 100_000 in
  let m = Array.make matches 0 and wrong = ref 0 in
  for k = 0 to matches - 1 do
    let j = Workload.next_id w rng in
    let id = w.Workload.ids.(j) in
    let t0 = Clock.ns () in
    let found = I3.Trigger_table.find_matches tbl ~now:1. id in
    m.(k) <- Clock.ns () - t0;
    let expected = Array.sub triggers (j * f) f in
    if
      List.length found <> f
      || not (Array.for_all (fun tr -> List.exists (I3.Trigger.equal tr) found) expected)
    then incr wrong
  done;
  let ins = Array.make inserts 0 in
  for k = 0 to inserts - 1 do
    let tr = triggers.(w.Workload.refresh_order.(k mod n)) in
    let expires = life +. fi k in
    let t0 = Clock.ns () in
    I3.Trigger_table.insert tbl ~now:1. ~expires tr;
    ins.(k) <- Clock.ns () - t0
  done;
  if I3.Trigger_table.size tbl <> n then incr wrong;
  let m = Stats.sorted m and ins = Stats.sorted ins in
  ( [
      ("trigger_table.match_p50_ns", "ns", fi (Stats.percentile m 50.));
      ("trigger_table.match_p99_ns", "ns", fi (Stats.percentile m 99.));
      ("trigger_table.insert_p50_ns", "ns", fi (Stats.percentile ins 50.));
      ("trigger_table.insert_p99_ns", "ns", fi (Stats.percentile ins 99.));
    ],
    !wrong )

(* --- main --- *)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe";
  let spec =
    match Workload.find !workload with
    | Some s -> s
    | None -> fail "unknown workload %S" !workload
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  (* Dying by signal would skip [at_exit] and leave the daemon behind. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  if not (Sys.file_exists !i3d) then fail "no daemon binary at %s" !i3d;
  let traced = !trace = 1 in
  let child = if traced then Some (fork_traced ~payload:spec.Workload.payload) else None in
  let nproc = Proc.nproc () in
  let pinned = nproc >= 2 && Proc.pin (Unix.getpid ()) generator_cpu in
  let w = Workload.generate spec ~seed:!seed in
  let g = Loadgen.create w in
  (* Untraced phases take the whole run, or half of it when a traced
     run follows. *)
  let phase_ns = !seconds * 1_000_000_000 / if traced then 4 else 2 in
  let setup_times = ref [] in
  let rec setup k =
    let d = start_i3d g ~pinned in
    setup_times := d.setup_s :: !setup_times;
    let spent = List.fold_left ( +. ) 0. !setup_times in
    if (not traced)
       && (k < min_setups || (spent < setup_budget_s && k < max_setups))
    then begin
      Proc.reap d.pid;
      setup (k + 1)
    end
    else d
  in
  let d = setup 1 in
  let r = drive g ~pid:d.pid ~phase_ns ~scrape:traced ~on_start:ignore in
  let peak_kb = Proc.vm_hwm_kb (string_of_int d.pid) in
  let decode_errors, inserts_accepted, problems = audit g d in
  Proc.reap d.pid;
  let attempted = ref (r.closed.attempted + r.open_.attempted) in
  let failed = ref (r.closed.failed + r.open_.failed) in
  let cpu_us_per_op = cpu_per_op r.open_ in
  let lat = Stats.sorted r.open_.latencies in
  if Array.length lat = 0 then fail "no op completed in the open phase";
  let trace_facts = ref [] and traced_decode_errors = ref 0 and trie_wrong = ref 0 in
  let generator_bound = ref r.generator_bound in
  let metrics =
    match child with
    | None ->
        [
          ("setup_s", "s", Stats.median (Array.of_list !setup_times));
          ("latency_p50_us", "us", us_of_ns (Stats.percentile lat 50.));
          ("cpu_us_per_op", "us", cpu_us_per_op);
          ("peak_rss_mb", "MB", fi peak_kb /. 1024.);
        ]
    | Some c ->
        (* daemon.* from i3d's registry, over both untraced phases. *)
        let s0, s2 = r.snaps in
        let delta name = total s2 name -. total s0 name in
        let ops = fi (r.closed.completed + r.open_.completed) in
        let frames = delta "driver.frames" in
        let ticks =
          fi
            (hist_count s2 "driver.step_ms" ("event", "tick")
            - hist_count s0 "driver.step_ms" ("event", "tick"))
        in
        let wall_ms = Clock.s_of_ns (Loadgen.wall_ns r.closed + Loadgen.wall_ns r.open_) *. 1000. in
        let closed_wall = fi (Loadgen.wall_ns r.closed) in
        let lateness = Stats.sorted r.open_.lateness in
        (* The traced run: same phases against the traced child. *)
        start_traced c g ~pinned;
        let tr =
          drive g ~pid:c.cpid ~phase_ns:(min phase_ns traced_phase_ns) ~scrape:false
            ~on_start:(fun () ->
              Unix.kill c.cpid Sys.sigusr1;
              (* Let the child see the signal before the clock starts. *)
              Unix.sleepf 0.01)
        in
        let s = finish_traced c in
        traced_decode_errors := s.Traced.decode_errors;
        generator_bound := !generator_bound || tr.generator_bound;
        let trie, wrong = trie_micro w ~gen:g.Loadgen.gen in
        trie_wrong := wrong;
        trace_facts :=
          [
            ("trace_spans", Json.Int s.Traced.spans);
            ("trace_full", Json.Bool s.Traced.full);
            ("trace_decode_errors", Json.Int s.Traced.decode_errors);
            ("trigger_table_wrong_answers", Json.Int wrong);
          ];
        attempted := !attempted + tr.closed.attempted + tr.open_.attempted;
        failed := !failed + tr.closed.failed + tr.open_.failed;
        let l k = s.Traced.layers.(k) in
        let wall = fi s.Traced.wall_ns in
        let idle = Float.max 0. (wall -. fi s.Traced.cpu_ns) in
        let recv_ns = fi ((l Traced.k_wait).ns + (l Traced.k_poll).ns) -. idle in
        let dgrams = fi ((l Traced.k_wait).items + (l Traced.k_poll).items) in
        let selects =
          fi ((l Traced.k_wait).calls + (l Traced.k_poll).calls + (l Traced.k_poll).items)
        in
        let frames_t = fi (l Traced.k_decode).calls in
        let step_ns = fi ((l Traced.k_step).ns + (l Traced.k_tick).ns) in
        let step_words = fi ((l Traced.k_step).words + (l Traced.k_tick).words) in
        let events = fi ((l Traced.k_step).items + (l Traced.k_tick).calls) in
        let step_calls = fi ((l Traced.k_step).calls + (l Traced.k_tick).calls) in
        let encoded = fi (l Traced.k_encode).items in
        let sends = fi (l Traced.k_send).calls in
        let traced_cpu_per_op = cpu_per_op tr.open_ in
        let share x = ratio x wall in
        [
          ("udp.recv.ns_per_dgram", "ns", ratio recv_ns dgrams);
          ("udp.recv.words_per_dgram", "words",
            ratio (fi ((l Traced.k_wait).words + (l Traced.k_poll).words)) dgrams);
          ("udp.recv.select_per_dgram", "count", ratio selects dgrams);
          ("udp.recv.dgrams_per_turn", "count", ratio dgrams (fi s.Traced.turns));
          ("engine.decode.ns_per_frame", "ns", ratio (fi (l Traced.k_decode).ns) frames_t);
          ("engine.decode.words_per_frame", "words", ratio (fi (l Traced.k_decode).words) frames_t);
          ("engine.step.ns_per_event", "ns", ratio step_ns events);
          ("engine.step.words_per_event", "words", ratio step_words events);
          ("engine.step.events_per_call", "count", ratio events step_calls);
          ("engine.step.ticks_per_frame", "count", ratio (fi (l Traced.k_tick).calls) frames_t);
          ("engine.encode.ns_per_frame", "ns", ratio (fi (l Traced.k_encode).ns) encoded);
          ("engine.encode.words_per_frame", "words", ratio (fi (l Traced.k_encode).words) encoded);
          ("udp.send.ns_per_dgram", "ns", ratio (fi (l Traced.k_send).ns) sends);
          ("udp.send.words_per_dgram", "words", ratio (fi (l Traced.k_send).words) sends);
          ("share.recv", "ratio", share recv_ns);
          ("share.decode", "ratio", share (fi (l Traced.k_decode).ns));
          ("share.step", "ratio", share step_ns);
          ("share.encode", "ratio", share (fi (l Traced.k_encode).ns));
          ("share.send", "ratio", share (fi (l Traced.k_send).ns));
          ("loop.other_share", "ratio", share (fi (l Traced.k_turn).ns));
          ("loop.idle_share", "ratio", share idle);
          (* One inbound frame per op: a data packet or an Insert. *)
          ("gc.minor_words_per_op", "words", ratio s.Traced.minor_words frames_t);
          ("gc.major_collections_per_s", "1/s",
            ratio (fi s.Traced.major_collections) (Clock.s_of_ns s.Traced.wall_ns));
          ("gc.heap_mb", "MB", fi (s.Traced.heap_words * (Sys.word_size / 8)) /. 1e6);
          ("daemon.frames_per_op", "count", ratio frames ops);
          ("daemon.sends_per_op", "count", ratio (delta "driver.sends") ops);
          ("daemon.tick_steps_per_frame", "count", ratio ticks frames);
          ("daemon.step_ms_share", "ratio", ratio (delta "driver.step_ms") wall_ms);
          ("daemon.cpu_share", "ratio", ratio (fi r.cpu_closed_ns) closed_wall);
          ("loadgen.late_p99_us", "us", us_of_ns (Stats.percentile lateness 99.));
          ("loadgen.cpu_share", "ratio", ratio (fi r.gen_cpu_closed_ns) closed_wall);
          ("trace.overhead", "ratio", ratio traced_cpu_per_op cpu_us_per_op);
          ("latency_p99_us", "us", us_of_ns (Stats.percentile lat 99.));
          ("delivers_per_s", "1/s", Stats.median (slice_rates r.closed));
        ]
        @ trie
  in
  let problems =
    problems
    @ (if !traced_decode_errors <> 0 then
         [ Printf.sprintf "traced daemon: %d decode errors" !traced_decode_errors ]
       else [])
    @ (if !trie_wrong <> 0 then
         [ Printf.sprintf "I3.Trigger_table: %d wrong answers" !trie_wrong ]
       else [])
  in
  let correct = g.Loadgen.corrupt = 0 && problems = [] in
  let facts =
    Json.Obj
      ([
        ("workload", Json.String spec.Workload.name);
        ("seed", Json.Int !seed);
        ("seconds", Json.Int !seconds);
        ("trace", Json.Int !trace);
        ("nproc", Json.Int nproc);
        ("pinned", Json.Bool pinned);
        ("transport", Json.String "udp over loopback (127.0.0.1)");
        ("ocaml", Json.String Sys.ocaml_version);
        ("source_md5", Json.String (source_digest ()));
        ("failed_ratio", Json.Float (ratio (fi !failed) (fi !attempted)));
        ("latency_samples", Json.Int (Array.length lat));
        ("setups", Json.Int (List.length !setup_times));
        (* How far the slices of this run spread around the medians. *)
        ("delivers_per_s_slice_spread", Json.Float (Stats.spread (slice_rates r.closed)));
        ("cpu_us_per_op_slice_spread", Json.Float (Stats.spread (slice_cpu r.open_)));
        ("daemon_decode_errors", Json.Int decode_errors);
        ("daemon_inserts_accepted", Json.Int inserts_accepted);
        ("generator_bound", Json.Bool !generator_bound);
        ("corrupt_frames", Json.Int g.Loadgen.corrupt);
        ("first_problem",
          Json.String
            (match (g.Loadgen.first_corrupt, problems) with
            | "", [] -> ""
            | "", p :: _ -> p
            | c, _ -> c));
      ]
      @ !trace_facts)
  in
  print_endline (Json.to_string (Json.Obj [ ("facts", facts) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", json_metrics metrics);
          ]));
  Loadgen.close g;
  if not correct then exit 1
