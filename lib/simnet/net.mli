(** Best-effort datagram network over the event engine: the "IP layer".

    Endpoints attach at topology *sites*; a message from endpoint [a] to
    endpoint [b] is delivered after [latency site_a site_b] ms of virtual
    time, or silently dropped under the configured loss rate or if either
    endpoint is down — exactly the best-effort, no-ordering, no-reliability
    service i3 assumes of IP (paper Sec. II-A).  Endpoints can move between
    sites (host mobility) and crash/recover (server failure).

    Network weather — partitions, one-way gray links, Gilbert–Elliott
    burst loss, uniform loss, duplication, jitter and latency spikes —
    is not decided here: {!apply} hands each {!Faults.event} to a
    {!Faults.Weather} core, and {!send} asks that core for every
    message's fate.  The wire's [Transport.Faulty] drives the same core,
    so one schedule means the same thing on both substrates.  This
    module keeps endpoints, up/down, the transducer, the base latency,
    the observer and the [net.*] counters; every drop is counted by
    cause in {!stats}. *)

type addr = int
(** Endpoint address ("IP address + port" of the paper). *)

val pp_addr : Format.formatter -> addr -> unit

type 'msg t
(** A network carrying messages of type ['msg]. *)

val create :
  ?metrics:Obs.Metrics.t ->
  ?label:string ->
  Engine.t ->
  rng:Rng.t ->
  latency:(int -> int -> float) ->
  unit ->
  'msg t
(** [latency] maps a pair of sites to one-way latency in ms.  Accounting
    registers under [net.*] in [metrics] (default {!Obs.Metrics.default})
    with an [instance] label — [label] if given, else a fresh ["netN"] —
    so independent networks never share counters. *)

val engine : 'msg t -> Engine.t

val label : 'msg t -> string
(** The [instance] label this network's metrics carry. *)

val register : 'msg t -> site:int -> (src:addr -> 'msg -> unit) -> addr
(** Attach a new endpoint at a site with a receive handler; returns its
    address. *)

val set_handler : 'msg t -> addr -> (src:addr -> 'msg -> unit) -> unit
val site : 'msg t -> addr -> int

val move : 'msg t -> addr -> int -> unit
(** Re-home an endpoint to another site (mobile host changing subnet).
    Messages already in flight are delivered to the new location — the
    address is the endpoint's identity here; acquiring a genuinely new
    address is modeled by registering a fresh endpoint. *)

val send : 'msg t -> src:addr -> dst:addr -> 'msg -> unit
(** Fire-and-forget datagram. Dropped silently when the source or the
    destination is down at the relevant instant, or when the weather
    core says so (cut, gray link, burst or uniform loss); otherwise
    delivered after the base latency plus the core's extra delay, and
    perhaps twice. *)

val set_down : 'msg t -> addr -> unit
(** Crash an endpoint: it stops sending and receiving. *)

val set_up : 'msg t -> addr -> unit
val is_up : 'msg t -> addr -> bool

val set_tap : 'msg t -> (src:addr -> dst:addr -> 'msg -> unit) -> unit
(** Observe every successful delivery (tracing in tests). *)

type outcome = [ `Enqueue | `Drop of string ]
(** Fate decided by the network for one {!send}: accepted for
    transmission, or dropped with a cause (["loss"], ["burst"], ["down"],
    ["partition"], ["gray"]).  A message enqueued while its destination is
    up can still die in flight if the destination goes down before
    delivery — that surfaces as a second callback with [`Drop "down"] at
    delivery time. *)

val set_observer : 'msg t -> (src:addr -> dst:addr -> 'msg -> outcome -> unit) -> unit
(** Observe the fate of every message as the network decides it.  This is
    the hook {!Obs.Trace} integrations attach to: the network itself is
    payload-agnostic, so the observer (which can inspect ['msg]) turns
    outcomes into trace events. *)

val set_transducer : 'msg t -> ('msg -> ('msg, string) result) -> unit
(** Pass every sent message through a transform before any fault or
    latency processing; the {e transformed} value is what gets delivered.
    [Error] drops the message with cause ["codec"].  This is how the wire
    codecs interpose on simulated traffic: the transducer encodes to
    bytes and decodes back, so every hop of every existing test exercises
    the real wire format and any drift surfaces as a ["codec"] drop (see
    [I3.Codec.harden]).  The transducer draws no network randomness, so
    seeded runs replay identically with or without one. *)

(** {1 Network weather} *)

val apply : 'msg t -> Faults.event -> unit
(** Hand one weather event to this network's {!Faults.Weather} core
    (e.g. [apply net (Faults.Loss 0.2)]; [Faults.Loss 1.] is a total
    blackhole).  [Crash] and [Restart] are ignored.
    @raise Invalid_argument when {!Faults.validate} refuses the event. *)

val driver :
  ?crash:(int -> unit) -> ?restart:(int -> unit) -> 'msg t -> Faults.driver
(** {!apply} as a {!Faults.driver}, with [Crash] and [Restart] delegated
    to the optional callbacks (default: ignored), since endpoint
    lifecycle is owned by the layer above. *)

(** {1 Accounting}

    All counters live in the {!Obs.Metrics} registry passed at creation
    (names [net.sent], [net.delivered], [net.duplicated], [net.dropped]
    with a [cause] label, each carrying this network's [instance] label);
    {!snapshot} via [Obs.Metrics.snapshot] is the uniform read API.  The
    [stats] record below is a thin per-instance view kept so existing
    callers and tests read unchanged. *)

type stats = {
  sent : int;
  delivered : int;
  duplicated : int;  (** extra copies made under [Faults.Duplicate] *)
  dropped_loss : int;  (** uniform i.i.d. loss *)
  dropped_burst : int;  (** Gilbert–Elliott chain in the Bad state *)
  dropped_down : int;  (** sender or receiver endpoint down *)
  dropped_partition : int;  (** crossing an active partition cut *)
  dropped_gray : int;  (** one-way gray link *)
  dropped_codec : int;  (** {!set_transducer} returned [Error] *)
}

val stats : 'msg t -> stats
val endpoint_count : 'msg t -> int
