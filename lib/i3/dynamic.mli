(** A fully decentralized i3 deployment in simulation: every server is
    an {!Engine} — an i3 server fused with a live {!Chord.Protocol}
    node (join, stabilize, fix-fingers, failure detection) — forwarding
    data from its {e own, possibly stale} local view.  This is the
    architecture of the paper's prototype (Sec. V-C: "the control
    protocol used to maintain the overlay network is fully asynchronous
    and is implemented on top of UDP") and the self-organization story
    of Secs. IV-C/D/H:

    - a new server joins through any existing one and, within a few
      stabilization rounds, owns an arc and starts accumulating triggers
      as hosts refresh;
    - during convergence, responsibility claims may briefly overlap or
      gap; packets are best-effort and soft state repairs everything;
    - when a server dies, its neighbors detect it via RPC suspicion,
      the ring heals, and the triggers reappear at the successor on the
      owners' next refresh.

    Each server has one simulated port that carries its Chord RPCs and
    its i3 traffic alike, as [bin/i3d] runs one engine on one UDP
    socket.  This module is only the fleet manager: it spends each
    engine's effects on the simulated network (sends become datagrams,
    [Set_timer] becomes one simulator wakeup stepping [Tick]) and
    joins, kills and restarts servers.  Servers join by address, as
    [i3d --join] does, and a restart is a fresh engine at the same
    address and id. *)

type t

val create :
  ?seed:int ->
  ?uniform_latency_ms:float ->
  ?server_config:Server.config ->
  ?protocol_config:Chord.Protocol.config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Span.t ->
  ?substrate:Koorde.Substrate.spec ->
  unit ->
  t
(** An empty deployment. The default protocol config is sped up
    (2 s stabilization) so tests converge in little virtual time; pass
    [Chord.Protocol.default_config] for the paper's 30 s periods.
    Counters — including the Chord nodes', under {!ring_label} —
    register in [metrics] (default {!Obs.Metrics.default}); a live
    [tracer] turns on per-packet tracing on the network, every server
    and every host; a live [spans] collector records control-plane span
    trees (Chord lookups/RPCs/stabilization and host trigger
    round-trips).  Every hop, Chord RPCs included, is byte-roundtripped
    through {!Codec}, so every chaos scenario doubles as a codec test;
    failures surface as ["codec"] drops and in [wire.decode_errors].

    [substrate] selects the forwarding substrate.  [Chord _] or omitting
    it keeps each engine's own finger-based forwarding.
    [Koorde {degree}] is an {e oracle mode} that exists only in
    simulation: servers forward along de Bruijn hops computed over a
    snapshot of the global live membership (rebuilt after every
    join/kill/restart) and installed with {!Server.set_view}.
    Ownership — and therefore trigger placement and the conservation
    invariants — stays with each engine's Chord node, which the Koorde
    ring agrees with whenever the membership view is converged. *)

val engine : t -> Sim.Engine.t
(** The simulator's scheduler: the fleet's virtual clock. *)

val tracer : t -> Obs.Trace.t
(** The collector passed at creation ({!Obs.Trace.disabled} otherwise). *)

val metrics : t -> Obs.Metrics.t

val spans : t -> Obs.Span.t
(** The span collector passed at creation ({!Obs.Span.disabled}
    otherwise). *)

val ring_label : t -> string
(** The [instance] label every server's [chord.*] metrics carry
    ({!Chord.Protocol.detached_label}), so they add up to the fleet's
    ring-wide series — what a health monitor filters them by.  Two
    fleets sharing one registry share these series too. *)

val run_for : t -> float -> unit
val now : t -> float

val add_server : t -> ?site:int -> unit -> Server.t
(** Start a server: the first call bootstraps the ring; later calls join
    through a random live member. Returns immediately — the server
    becomes responsible for its arc as stabilization proceeds. *)

val kill_server : t -> Server.t -> unit
(** Fail-stop a server and its Chord node; peers notice via timeouts.
    A no-op on a dead server. *)

val restart_server : t -> Server.t -> unit
(** Recover a killed server: a fresh engine at the same address and id,
    with empty soft state and ring state, that rejoins through a random
    live member.  Hosts re-insert their triggers on refresh
    (Sec. IV-C).  The restarted server is a new {!Server.t} (look it up
    again with {!servers} or {!nth_server}) with the same metrics
    label.  @raise Invalid_argument if the server is alive. *)

val servers : t -> Server.t list
(** Live servers. *)

val all_servers : t -> Server.t list
(** Every server ever started, alive or dead, in join order — the victim
    index space of {!fault_driver}. *)

val nth_server : t -> int -> Server.t
(** The i-th server in join order. @raise Invalid_argument out of range. *)

val owners_of : t -> Id.t -> Server.t list
(** Servers currently claiming responsibility for an identifier (by their
    local state). Exactly one once the ring has converged. *)

val new_host : t -> ?site:int -> ?config:Host.config -> ?n_gateways:int -> unit -> Host.t

val total_triggers : t -> int

(** {1 Fault injection}

    The fault driver applies each network-level event (partition, gray
    link, burst loss, jitter, …) to the one simulated network, which
    Chord RPCs and i3 packets share, and maps
    [Faults.Crash]/[Faults.Restart] victim indices onto
    {!kill_server}/{!restart_server} in join order. *)

val fault_driver : t -> Faults.driver

val inject : t -> Faults.schedule -> unit
(** [inject t s] is [Faults.install (engine t) (fault_driver t) s]. *)

val net_stats : t -> Net.stats
(** Drop/delivery accounting of the network, by fault cause. *)
