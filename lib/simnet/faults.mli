(** Declarative, seed-reproducible fault schedules: the chaos layer.

    A {!schedule} is a list of [(virtual-time offset, event)] pairs; a
    {!driver} interprets each event against some substrate — a raw
    {!Net.t} (via {!net_driver}), or a full deployment (e.g.
    [I3.Dynamic.fault_driver], which applies network faults to the
    network every protocol shares, as a real partition severs every
    protocol crossing the cut, and maps [Crash]/[Restart] onto server
    kill/recover).

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
      (** Install a Gilbert–Elliott chain (see {!Net.set_burst_loss}). *)
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

val net_driver :
  ?crash:(int -> unit) -> ?restart:(int -> unit) -> 'msg Net.t -> driver
(** Interpret network-level events against one {!Net.t}.  [Crash] and
    [Restart] are delegated to the optional callbacks (default: ignored),
    since endpoint lifecycle is owned by the layer above. *)

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
