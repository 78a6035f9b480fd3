(** The sans-IO i3 end host: one protocol core for the simulator
    ({!Host}) and for real UDP ([Transport.Client]).

    Shaped like {!Engine}: the core performs no I/O and reads no clock.
    A driver stamps each input with its own time and spends the returned
    effects on whatever network it owns.  The core holds everything the
    paper asks of an end host:

    - {b soft state} (Secs. II-D, IV-C): each binding is re-inserted at
      [last_ack + refresh_period].  An unacked send times out after
      {!attempt_timeout_ms} and is retried after a jittered exponential
      backoff (50 ms doubling, capped at 2 s, ±20 %).  After
      {!rehome_after} misses at the cached server the cache entry is
      dropped and the insert re-homes through the gateway.  {!round}
      consecutive misses at the current gateway rotate to the next one;
      a data packet's gateway detour that draws no [Cache_info] within
      the attempt timeout counts as a miss too, so a host that only
      sends still leaves a dead gateway.  A fresh insert reports
      {!notice.Gave_up} once, after its first {!round} misses, and keeps
      retrying until removed;
    - {b the sender cache} (Sec. IV-E): one prefix → server cache, filled
      by [Insert_ack] and [Cache_info].  Data toward a cached prefix goes
      straight to its server; a miss goes through the gateway with the
      refreshing flag and the sender set;
    - {b challenges} (Sec. IV-J3): a challenge is answered only for a
      binding this host asked for, which is the reflection defense.

    Control-plane spans: one [i3.trigger_insert] / [i3.trigger_refresh]
    per insert round, closed by the ack (retries, rotations and
    challenges annotated); one [i3.first_packet] per gateway detour
    toward an uncached prefix, linked to the packet's trace id and
    closed when the prefix's server lands in the cache. *)

type config = {
  refresh_period : float;
      (** ms from an ack to the next refresh; default
          [Trigger.default_lifetime_ms / 3], so two lost refreshes still
          precede expiry *)
  cache_ttl : float;  (** ms a learned prefix → server entry is trusted *)
}

val default_config : config

val attempt_timeout_ms : float
(** 250 ms: how long one insert waits for its ack. *)

val max_retry_gap_ms : float
(** The longest wait from one unacked send to the next: the attempt
    timeout plus the largest jittered backoff (250 + 2000 · 1.2 ms).
    Once the host's gateway or cached server reaches the responsible
    server again, a binding is re-inserted within
    [refresh_period + max_retry_gap_ms]. *)

val rehome_after : int
(** 2: misses at the cached server before it is dropped. *)

val round : int
(** 5: consecutive misses at a gateway before rotating, and misses
    before a fresh insert reports {!notice.Gave_up}. *)

type event =
  | Frame of { src : Packet.addr; frame : Message.t }
      (** A decoded frame from [src]. *)
  | Tick  (** No input: attend to whatever is due at [now]. *)
  | Insert_trigger of Trigger.t
      (** Insert a binding and keep it refreshed until removed.
          Re-inserting a known binding restarts it as a fresh insert. *)
  | Remove_trigger of Trigger.t
      (** Forget the binding and send one best-effort [Remove]. *)
  | Send_packet of Packet.t  (** Send a data packet (see above). *)
  | Move of Packet.addr
      (** The host now lives at this address: rewrite every binding
          that points at the old one and re-insert it at once
          (Sec. II-D1). *)

(** What happened to a binding. *)
type notice =
  | Acked of Packet.addr  (** the server that now holds it *)
  | Refreshed of Packet.addr  (** a refresh round began toward this server *)
  | Timed_out  (** an insert went unacked for {!attempt_timeout_ms} *)
  | Retried of Packet.addr  (** a retry left toward this server *)
  | Rehomed of Packet.addr  (** this cached server was dropped *)
  | Gave_up  (** a fresh insert missed a whole {!round} *)

type effect =
  | Send of Packet.addr * Message.t
  | Deliver of { stack : Packet.stack; payload : string; trace : int }
      (** A packet for the application, with the rest of its stack. *)
  | Binding of Trigger.t * notice
  | Set_timer of float
      (** Step [Tick] at this time: the earliest binding deadline.
          Always last; absent when the host keeps no bindings. *)

type t

val create :
  addr:Packet.addr ->
  gateways:Packet.addr list ->
  rng:Rng.t ->
  ?config:config ->
  ?spans:Obs.Span.t ->
  unit ->
  t
(** A host at [addr] that enters the overlay through [gateways] (its
    first contacts, Sec. II-C).  [rng] draws the backoff jitter.
    @raise Invalid_argument with no gateways. *)

val step : t -> now:float -> event -> effect list
(** Dispatch the event, then attend to every binding due by [now].
    Effects come in that order, then the trailing {!effect.Set_timer}.
    A regressing [now] is clamped.  Deterministic for a given [rng]
    state and event sequence. *)

val addr : t -> Packet.addr
val gateway : t -> Packet.addr
(** The current gateway. *)

val triggers : t -> Trigger.t list
(** Bindings kept alive, newest first. *)

val cached_server : t -> now:float -> Id.t -> Packet.addr option
(** The cache entry for an identifier's prefix, if still fresh. *)

val cache_size : t -> now:float -> int
