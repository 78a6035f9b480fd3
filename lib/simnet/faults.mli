(** Declarative, seed-reproducible fault schedules: the chaos layer.

    A {!schedule} is a list of [(virtual-time offset, event)] pairs; a
    {!driver} interprets each event against some substrate — a raw
    {!Net.t} (via [Net.driver]), a wire endpoint ([Transport.Faulty]),
    or a full deployment (e.g. [I3.Dynamic.fault_driver], which applies
    network faults to the network every protocol shares, as a real
    partition severs every protocol crossing the cut, and maps
    [Crash]/[Restart] onto server kill/recover).

    The network-weather events mean one thing everywhere: {!Weather} is
    the single sans-IO interpreter of them, and both the simulator's
    [Net] and the wire's [Transport.Faulty] are thin drivers of it.

    Everything is driven by an explicit {!Rng.t}, so a scenario replays
    identically from its seed — the property that turns a flaky chaos
    test into a regression test. *)

type event =
  | Partition of int list
      (** Cut these sites off from all other sites (both directions). *)
  | Heal  (** Remove every active partition. *)
  | Crash of int
      (** Fail-stop victim [i] — interpretation of the index is the
          driver's (e.g. i-th server in join order). *)
  | Restart of int  (** Recover victim [i] with empty soft state. *)
  | Gray of { from_site : int; to_site : int }
      (** One-way gray link: [from_site -> to_site] silently drops. *)
  | Gray_heal of { from_site : int; to_site : int }
  | Burst_loss of { p_enter : float; p_exit : float; loss_bad : float }
      (** Install a Gilbert–Elliott chain (see {!Weather}). *)
  | Burst_end
  | Loss of float  (** Set the uniform loss rate (1. = blackhole). *)
  | Jitter of float  (** Uniform[0, ms) extra delivery latency. *)
  | Latency_spike of float  (** Fixed extra delivery latency in ms. *)
  | Duplicate of float  (** Message duplication probability. *)

val pp_event : Format.formatter -> event -> unit

type schedule = (float * event) list
(** Event times are offsets in virtual ms from the moment of
    {!install}. *)

type driver = event -> unit

val null_driver : driver

val validate : event -> unit
(** The one range check every interpreter applies ({!Weather.apply}
    calls it; command-line front ends call it on their flags).
    Probabilities must lie in [0, 1] and delays must be finite and
    non-negative — NaN and infinities are refused — and a [Partition]
    needs at least one site.  @raise Invalid_argument otherwise. *)

(** The network-weather core: given the events applied so far, decide
    the fate of one send from [src_site] to [dst_site].  Sans-IO: it
    reads no clock and owns no queue; a driver adds the base latency
    and does the delivering.

    {!decide} checks, in this order: any active partition cut, a gray
    link, the burst-loss chain, uniform loss; a surviving send then
    draws its jitter, the duplication coin, and the copy's jitter.  The
    order is the contract: it fixes the RNG stream, so a seeded run
    replays bit for bit on either driver. *)
module Weather : sig
  type cause = [ `Partition | `Gray | `Burst | `Loss ]

  val cause_name : cause -> string
  (** ["partition"], ["gray"], ["burst"], ["loss"]: the [cause] label of
      [net.dropped] and [faulty.dropped]. *)

  type verdict =
    | Drop of cause
    | Pass of { delay : float; dup_delay : float option }
        (** Extra ms on top of the base latency (fixed spike plus
            Uniform[0, jitter)) for the send and, when a copy is made,
            for the copy. *)

  type t

  val create : rng:Rng.t -> t
  (** Clear weather: no cut, no loss, no delay. *)

  val apply : t -> event -> unit
  (** Set state from one event, after {!validate}.  [Partition sites]
      adds a cut severing [sites] from every other site, both ways
      (cuts accumulate; [Heal] removes them all).  [Gray] drops
      [from_site -> to_site] only.  [Burst_loss] (re)starts a
      Gilbert–Elliott chain in the Good state: each send advances it
      (Good -> Bad with [p_enter], Bad -> Good with [p_exit]) and a
      send in the Bad state is lost with [loss_bad]; mean burst length
      is [1 /. p_exit] sends.  [Crash] and [Restart] are ignored:
      endpoint lifecycle belongs to the layer above. *)

  val decide : t -> src_site:int -> dst_site:int -> verdict
end

val install : Engine.t -> driver -> schedule -> unit
(** Schedule every event against the engine, relative to the current
    virtual time.  @raise Invalid_argument on a negative event time. *)

val sorted : schedule -> schedule
(** Stable-sort a schedule by event time. *)

val churn :
  Rng.t ->
  victims:int list ->
  start:float ->
  spacing:float ->
  downtime:float ->
  schedule
(** A reproducible rolling-restart storm: each victim (in a seeded random
    order) crashes at [start + i * spacing] and restarts [downtime] ms
    later.  Overlapping downtimes model correlated failures. *)
