(** The i3 end host over real UDP.

    A thin driver of {!I3.Host_engine}, the protocol core [I3.Host] runs
    in the simulator: ack-awaited inserts with retry, backoff and
    re-homing, soft-state refresh that re-populates a restarted daemon,
    the sender's server cache and challenge answers (Secs. IV-C, IV-E,
    IV-J3) all live there.  This module adds the socket, a monotonic
    clock, the blocking {!insert} and the {!ping} probe.  Sends may be
    routed through a {!Faulty} decorator so chaos scenarios exercise
    this exact path.  Counters ([client.sends], [client.retries],
    [client.timeouts], [client.gave_up], [client.acks],
    [client.refreshes], [client.delivers], [client.data_sent]) count
    the core's effects and notices. *)

type config = I3.Host_engine.config = {
  refresh_period : float;  (** ms from an ack to the next refresh *)
  cache_ttl : float;  (** ms a learned prefix -> server entry is trusted *)
}

val default_config : config

type pong = { server : int; triggers : int; uptime_ms : float }
(** A daemon's status reply to {!ping}. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?config:config ->
  ?instance:string ->
  ?faulty:Faulty.t ->
  rng:Rng.t ->
  gateways:int list ->
  Udp.t ->
  t
(** Takes over the socket's receive handler.  [gateways] are the i3
    servers this host enters through (rotated on persistent misses);
    [faulty] interposes fault injection on every send.  @raise
    Invalid_argument on an empty gateway list. *)

val local_addr : t -> int

val on_deliver : t -> (stack:I3.Packet.stack -> payload:string -> unit) -> unit
(** Application callback for [Deliver] frames. *)

(** {1 Triggers} *)

val insert : t -> I3.Trigger.t -> [ `Acked | `Gave_up ]
(** Register (or re-assert) a binding and block until it is acked, or
    until the core reports {!I3.Host_engine.notice.Gave_up} after a
    round of misses.  Either way the binding stays registered and the
    core keeps refreshing (and retrying) it until {!remove}. *)

val remove : t -> I3.Trigger.t -> unit
(** Forget the binding and send one best-effort [Remove]. *)

val triggers : t -> I3.Trigger.t list
(** Currently registered bindings. *)

(** {1 Data and probes} *)

val send_data :
  t ->
  ?ttl:int ->
  ?trace:int ->
  stack:I3.Packet.stack ->
  payload:string ->
  unit ->
  unit
(** Fire-and-forget data packet: straight to the cached server of the
    head identifier's prefix, else via the gateway asking for that
    server's address.  Reliability above it belongs to the application
    (cf. [I3apps.Reliable]). *)

val ping : t -> dst:int -> timeout_ms:float -> pong option
(** One liveness/status probe: send a nonce'd [Ping], wait for the
    matching [Pong]. *)

(** {1 The loop} *)

val wait : t -> timeout:float -> bool
(** One blocking receive step ([timeout] in seconds): flush the fault
    layer's delay queue, then wait until the socket is readable and
    handle every queued datagram ({!Udp.wait}). *)

val poll : t -> unit
(** Never blocks: flush the fault layer, dispatch everything queued on
    the socket, then let the core send whatever refresh or retry is
    due.  An application loop is [wait ~timeout] followed by [poll]. *)
