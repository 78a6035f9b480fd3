(** A health monitor over a live {!I3.Dynamic} deployment.

    Wires an {!Engine.scraper} timer to an {!Obs.Health} monitor: every
    [period] virtual ms the registry is sampled into time series and the
    SLO rules are judged.  When the overall verdict {e enters}
    [Violated], a flight-recorder dump (registry snapshot, series tails,
    recent spans and trace events, the triggering evaluations) is
    captured via {!Obs.Sink.flight_record}.

    The monitor reads only what the deployment publishes — metrics,
    spans, traces — never the simulator's ground truth, so
    {!time_to_detect} / {!time_to_recover} measure what an operator
    would actually have seen.  Compare them against
    {!Recovery.time_to_recovery} to quantify the observability gap:
    detection lags the fault by up to a scrape period plus the rule
    window; recovery may even {e lead} ground truth when the windowed
    delivery ratio clears while some probes are still being lost. *)

type t

(** {1 Rule presets}

    Building blocks for rule lists; all windows are virtual ms. *)

val delivery_rule :
  ?window_ms:float -> flow_labels:(string * string) list -> unit ->
  Obs.Health.rule
(** Windowed delivered/sent ratio of one {!Recovery.flow} (labels from
    {!Recovery.flow_labels}): [At_least {ok = 0.8; degraded = 0.45}] —
    the headroom absorbs probes still in flight at the window edge. *)

val rpc_timeout_rule :
  ?window_ms:float -> ring_label:string -> unit -> Obs.Health.rule
(** Chord RPC timeouts per second across the ring: the series labelled
    exactly [("instance", ring_label)] ({!I3.Dynamic.ring_label}).  A
    healthy ring has none.  The other ring rules match the same
    label. *)

val ring_stable_rule :
  ?window_ms:float -> ring_label:string -> unit -> Obs.Health.rule
(** Successor-pointer churn ([chord.ring_changes]) flat over the window
    (default 8 s). *)

val lookup_p99_rule :
  ?ok:float -> ?degraded:float -> ring_label:string -> unit ->
  Obs.Health.rule
(** Cumulative lookup-latency p99 under a bound.  Sticky — a cumulative
    quantile never recovers — so use it as a whole-run SLO, not for
    recovery tracking. *)

val default_rules :
  ?window_ms:float ->
  flow_labels:(string * string) list ->
  ring_label:string ->
  unit ->
  Obs.Health.rule list
(** [delivery_rule] + [rpc_timeout_rule]: both windowed, so verdicts
    recover when the deployment does. *)

(** {1 Lifecycle} *)

val create :
  ?period:float ->
  ?phase:float ->
  ?series_capacity:int ->
  ?history_capacity:int ->
  ?max_dumps:int ->
  ?dump_spans_tail:int ->
  ?dump_events_tail:int ->
  rules:Obs.Health.rule list ->
  I3.Dynamic.t ->
  t
(** Attach a monitor and start scraping every [period] ms (default 500,
    first scrape after [phase]).  At most [max_dumps] (default 4) flight
    records are kept — one per breach episode, oldest first. *)

val stop : t -> unit
(** Cancel the scrape timer; idempotent.  History and dumps remain
    readable. *)

val health : t -> Obs.Health.t
val period : t -> float

val scrape_now : t -> Obs.Health.evaluation list
(** Force an immediate scrape outside the timer cadence. *)

val on_violation : t -> (Obs.Health.evaluation list -> unit) -> unit
(** User hook run after the flight dump on each entry into [Violated]. *)

(** {1 Results} *)

val dumps : t -> (float * Json.t) list
(** Flight records captured so far, oldest first. *)

val time_to_detect : t -> fault_at:float -> float option
(** Virtual ms from the fault to the monitor's first non-[Ok] scrape at
    or after it; [None] if it never noticed. *)

val time_to_recover : t -> fault_at:float -> float option
(** Virtual ms from the fault to the first [Ok] scrape after the first
    breach; [None] without a breach or without recovery. *)

(** {1 Live rendering} *)

val live_header : t -> string list
(** ["t (ms)"; "overall"; one column per rule]. *)

val live_row : t -> string list
(** Current row: time, overall verdict, then ["value verdict"] per rule
    from the latest scrape. *)
