(** Reliable host-side i3 client over UDP: acks, timeouts, backoff,
    soft-state refresh.

    [bin/i3d] speaks the same fire-and-forget trigger protocol as the
    simulated servers; this client supplies the end-host robustness the
    paper assumes (Sec. IV-C): ack-awaited inserts under per-attempt
    timeouts, a jittered exponential backoff with a bounded retry
    budget, re-homing to a gateway when the acked server dies, and
    periodic refresh that re-populates a restarted daemon's empty soft
    state.  Sends may be routed through a {!Faulty} decorator so chaos
    scenarios exercise this exact path; counters
    ([client.sends/retries/timeouts/gave_up/acks/refreshes]) expose
    every decision to the registry. *)

type config = {
  attempt_timeout_ms : float;  (** ack wait per attempt (default 250) *)
  max_attempts : int;  (** per destination round (default 5) *)
  backoff_base_ms : float;  (** first backoff (default 50) *)
  backoff_factor : float;  (** growth per retry (default 2) *)
  backoff_max_ms : float;  (** backoff cap (default 2000) *)
  jitter : float;
      (** backoff spread: uniform in [±jitter] around the nominal value
          (default 0.2) *)
  refresh_period_ms : float;
      (** re-insert cadence; default [Trigger.default_lifetime_ms / 3],
          so two consecutive refresh losses still precede expiry *)
}

val default_config : config

type pong = { server : int; triggers : int; uptime_ms : float }
(** A daemon's status reply to {!ping}. *)

(** Binding-lifecycle decisions, reported as values (engine-style) so
    callers observe the reliability machinery without scraping
    counters: an ack landed (naming the server that now owns the
    binding), a refresh [Insert] left (and towards whom), a dead
    last-acked server was forgotten after two refresh misses, or a
    synchronous {!insert}'s retry budget ran out. *)
type event =
  | Acked of { trigger : I3.Trigger.t; server : int }
  | Refresh_sent of { trigger : I3.Trigger.t; dst : int }
  | Rehomed of { trigger : I3.Trigger.t; stale : int }
  | Gave_up of I3.Trigger.t

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?config:config ->
  ?instance:string ->
  ?clock:(unit -> float) ->
  ?faulty:Faulty.t ->
  rng:Rng.t ->
  gateways:int list ->
  Udp.t ->
  t
(** Takes over the socket's receive handler.  [gateways] are the i3
    servers this host may talk to first (rotated on give-up); [faulty]
    interposes fault injection on every send; [clock] returns ms
    (default wall clock).  @raise Invalid_argument on an empty gateway
    list. *)

val local_addr : t -> int

val on_deliver : t -> (stack:I3.Packet.stack -> payload:string -> unit) -> unit
(** Application callback for [Deliver] frames. *)

val on_event : t -> (event -> unit) -> unit
(** Observe binding-lifecycle {!event}s (default: dropped). *)

val gateway : t -> int
(** Current gateway daemon. *)

val rotate_gateway : t -> unit

(** {1 Triggers} *)

val insert : t -> I3.Trigger.t -> [ `Acked | `Gave_up ]
(** Register (or re-assert) a trigger and wait for its [Insert_ack]:
    up to [max_attempts] sends per destination round under
    [attempt_timeout_ms] each, jittered exponential backoff in between.
    The first round targets the server that acked this trigger last (if
    any); a gateway round follows.  [`Gave_up] exhausts the budget,
    bumps [client.gave_up], forgets the dead server and rotates the
    gateway — the binding stays registered, so {!maintain} keeps
    trying. *)

val remove : t -> I3.Trigger.t -> unit
(** Forget the binding and send one best-effort [Remove]. *)

val triggers : t -> I3.Trigger.t list
(** Currently registered bindings. *)

val maintain : t -> unit
(** The refresh half of {!poll} alone, at the client's own clock: for
    every binding whose last ack is older than [refresh_period_ms],
    send at most one refresh [Insert] per call and return — retries
    are paced by successive calls (spaced [attempt_timeout_ms] plus a
    jittered backoff apart), never by blocking waits, so a dead server
    cannot stall the caller's loop.  Refreshes retry indefinitely,
    re-homing from the last-acked server to a gateway after two misses
    (reported as {!event.Rehomed}); they do not bump [client.gave_up]
    (that budget belongs to the synchronous {!insert}). *)

(** {1 Data and probes} *)

val send_data :
  t ->
  ?ttl:int ->
  ?trace:int ->
  stack:I3.Packet.stack ->
  payload:string ->
  unit ->
  unit
(** Fire-and-forget data packet via the current gateway (data delivery
    is end-to-end best effort in i3; reliability above it belongs to the
    application, cf. [I3apps.Reliable]). *)

val ping : t -> dst:int -> timeout_ms:float -> pong option
(** One liveness/status probe: send a nonce'd [Ping], wait for the
    matching [Pong]. *)

(** {1 The loop} *)

val wait : t -> timeout:float -> bool
(** One blocking receive step ([timeout] in seconds): flush the fault
    layer's delay queue, then wait until the socket is readable and
    handle every queued datagram ({!Udp.wait}). *)

val poll : t -> now:float -> unit
(** The uniform {!Transport.S} maintenance step ([now] in ms on the
    client's clock): flush the fault layer, dispatch everything queued
    on the socket, then run the soft-state refresh machine once.
    Never blocks — an application loop is [wait ~timeout] followed by
    [poll ~now]. *)

val run : t -> duration_ms:float -> unit
(** {!wait} and {!poll} until the deadline. *)
