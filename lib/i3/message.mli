(** Everything that crosses the simulated IP network in an i3 deployment:
    data packets, the trigger control protocol (insert / refresh / remove /
    challenge / ack), sender-cache feedback, hot-spot pushes between
    servers, pushback, and final delivery to end-hosts. *)

type t =
  | Data of Packet.t  (** data packet, host-to-server or server-to-server *)
  | Insert of {
      trigger : Trigger.t;
      token : string option;  (** challenge response, if re-sending *)
    }
  | Remove of { trigger : Trigger.t }
  | Challenge of { trigger : Trigger.t; token : string }
      (** sent to the trigger's {e target address} (Sec. IV-J3) *)
  | Insert_ack of { trigger : Trigger.t; server : Packet.addr }
      (** lets hosts detect dead gateways / servers and re-home *)
  | Cache_info of { prefix : Id.t; server : Packet.addr }
      (** "I am the server for this prefix" feedback to a sender whose
          packet had the refreshing flag set (Sec. IV-E) *)
  | Cache_push of { triggers : (Trigger.t * float) list }
      (** hot-spot relief: the responsible server replicates a whole
          prefix bucket (trigger, remaining lifetime ms) onto its
          predecessor (Sec. IV-F) *)
  | Pushback of { id : Id.t; dead : Id.t }
      (** "remove your triggers with identifier [id] pointing at [dead]";
          cascades dead-end chains away (Sec. IV-J2) *)
  | Replica of { trigger : Trigger.t; lifetime : float }
      (** overlay-managed replication (Sec. IV-C, second solution): the
          responsible server mirrors each accepted trigger onto its
          immediate successor so a failure leaves no delivery gap *)
  | Deliver of { stack : Packet.stack; payload : string; trace : int }
      (** final IP hop from server to end-host: the rest of the stack is
          handed to the application (Sec. II-E) *)
  | Ping of { nonce : int }
      (** liveness probe: any server answers with a {!Pong} echoing the
          nonce — supervisors and clients use it for health checks and
          readiness gating ([bin/i3cluster]) *)
  | Pong of {
      nonce : int;
      server : Packet.addr;
      triggers : int;  (** resident (unexpired) triggers *)
      uptime_ms : float;
    }  (** status reply to a {!Ping}: a one-datagram health summary *)
  | Stats_request of {
      nonce : int;
      prefix : string;  (** registry name prefix to snapshot ("" = all) *)
      drain : bool;  (** also drain the server's trace ring *)
    }
      (** telemetry scrape: ask a server for a snapshot of its metrics
          registry (and, with [drain], the events still in its
          {!Obs.Trace} ring, which the server empties — each event
          crosses the wire exactly once) *)
  | Stats_response of {
      nonce : int;
      server : Packet.addr;
      samples : Obs.Metrics.sample list;
      events : Obs.Trace.event list;
    }
      (** scrape reply: a versioned, length-prefixed snapshot blob on the
          wire (see [Wire.Layout.stats_snapshot_version] and the caps
          [max_stats_samples] / [max_trace_drain]); collectors join the
          [events] of many servers on the trace id with
          {!Obs.Trace.assemble} *)
  | Chord of Chord.Protocol.msg
      (** a Chord ring-maintenance RPC: servers run Chord and i3 over one
          address, as the prototype does (Sec. V-C), so both protocols
          share this message type and its codec *)

val equal : t -> t -> bool
(** Structural equality, except [Data] payloads compare by content
    (a decoded packet borrows its payload from the frame; see
    {!Packet.equal}). *)

val pp : Format.formatter -> t -> unit

val trace_of : t -> int option
(** The {!Obs.Trace} id a message carries, when it participates in
    per-packet tracing ([Data] and [Deliver] with a non-zero id; control
    messages are untraced). *)
