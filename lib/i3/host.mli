(** End-host library: the public i3 API of Fig. 1(a) on the simulated
    network.

    A thin driver of {!Host_engine}, the one end-host protocol core
    (soft-state refresh with retry and re-homing, the sender's server
    cache, challenge handling) that [Transport.Client] drives over UDP.
    This module registers the host on a [Net], spends the core's effects
    there and keeps one {!Sim.Engine} wakeup re-armed from the core's
    timer.

    A host knows one or more i3 servers (its gateways, Sec. II-C); that is
    all it needs.  Its three core operations are
    [insert_trigger], [remove_trigger] and [send] — everything else
    (multicast, anycast, mobility, service composition) is built from
    these by the {!I3apps} layer. *)

type config = Host_engine.config = {
  refresh_period : float;  (** ms from an ack to the next refresh *)
  cache_ttl : float;  (** how long a learned prefix->server mapping is trusted *)
}

val default_config : config

type t

val create :
  engine:Sim.Engine.t ->
  net:Message.t Net.t ->
  rng:Rng.t ->
  site:int ->
  gateways:Packet.addr list ->
  ?config:config ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Span.t ->
  unit ->
  t
(** Attach a host at a topology site. @raise Invalid_argument with no
    gateways.  With a [tracer] (default {!Obs.Trace.disabled}) every sent
    packet gets a trace id (subject to the tracer's sampling) and every
    delivery records the terminal [Deliver] event.

    With a [spans] collector (default {!Obs.Span.disabled}) the host
    emits the control-plane spans described in {!Host_engine}. *)

val addr : t -> Packet.addr
val site : t -> int
val engine : t -> Sim.Engine.t
(** The virtual clock this host lives on (for application-level timers). *)

val on_receive : t -> (stack:Packet.stack -> payload:string -> unit) -> unit
(** Application downcall for delivered packets; receives the rest of the
    identifier stack (service composition reads it, Sec. III-A). *)

(** {1 Triggers} *)

val insert_trigger : t -> Id.t -> unit
(** Insert [(id, [Saddr self])] and keep it refreshed until removed. *)

val insert_stack_trigger : t -> Id.t -> Packet.stack -> unit
(** Insert [(id, stack)] — the generalized trigger of Sec. II-E. *)

val insert_trigger_with_backup : t -> Id.t -> Id.t
(** Insert the primary trigger and a backup at [Id.antipode id] (stored on
    a different server w.h.p., Sec. IV-C); returns the backup id. *)

val remove_trigger : t -> Id.t -> unit
(** Remove (and stop refreshing) every binding this host owns for [id]. *)

val active_triggers : t -> Trigger.t list

val refresh_now : t -> unit
(** Re-insert every binding now, as fresh inserts. *)

(** {1 Sending} *)

val send : t -> ?refresh:bool -> Id.t -> string -> unit
(** Send [(id, data)]. The first packet toward an uncached prefix travels
    via a gateway with the refreshing flag set; once the responsible
    server's [Cache_info] arrives, packets go to it directly over a single
    overlay hop (Sec. IV-E). *)

val send_stack :
  t -> ?match_required:bool -> Packet.stack -> string -> unit
(** Send with an explicit identifier stack (source-route style,
    Sec. II-E). *)

val send_with_backup : t -> primary:Id.t -> backup:Id.t -> string -> unit
(** Send [(\[primary; backup\], data)]: if the primary's server died, the
    packet falls through to the backup trigger (Sec. IV-C). *)

(** {1 Mobility} *)

val move : t -> new_site:int -> unit
(** Acquire a new address at [new_site] and immediately re-insert all
    triggers pointing at the new address; senders are oblivious
    (Sec. II-D1). The old address stops receiving. *)

(** {1 Introspection} *)

val cached_server_for : t -> Id.t -> Packet.addr option
(** Current cache entry for an identifier's prefix, if fresh. *)

val cache_size : t -> int
val gateway : t -> Packet.addr
(** Current gateway (rotates after {!Host_engine.round} misses). *)

val new_private_id : t -> Id.t
(** A fresh random identifier for a private trigger (Sec. IV-B). *)
