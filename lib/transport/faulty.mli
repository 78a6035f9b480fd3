(** Seeded fault injection at the send boundary of any byte transport.

    A thin wire-side driver of {!Faults.Weather}, the core the
    simulator's {!Net} drives too: the same {!Faults.event} vocabulary,
    the same validation, the same draw order, so one [Faults.schedule]
    brings the same weather to a loopback cluster that it brings to a
    simulated one.  The local address and the destination address play
    the two sites of a partition or gray link.

    Delayed datagrams park in a due-time queue and leave on {!flush};
    call it from the owning loop.  {!send} and {!flush} take the
    caller's clock ([bin/i3d] and [Transport.Client] pass monotonic ms),
    so this module reads none. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  rng:Rng.t ->
  local:int ->
  (dst:int -> string -> unit) ->
  t
(** Wrap a send closure (e.g. [Udp.send u]) for the endpoint at address
    [local].  Registers [faulty.sent], [faulty.duplicated],
    [faulty.delayed] and [faulty.dropped] (with a [cause] label, the
    same strings as [net.dropped]) under the instance label
    ["faulty<local>"]. *)

val apply : t -> Faults.event -> unit
(** {!Faults.Weather.apply}: a {!Faults.driver} as it stands.
    @raise Invalid_argument when {!Faults.validate} refuses the event. *)

val send : t -> now:float -> dst:int -> string -> unit
(** Ask the weather for this datagram's fate: drop it, or hand it (and
    any copy) to the wrapped sender, at once when its extra delay is 0
    and otherwise at [now] plus that delay, on the next {!flush}. *)

val flush : t -> now:float -> int
(** Release every parked datagram due by [now], earliest first and
    FIFO among equal due times; returns how many left.  A [now] earlier
    than a previous one releases nothing early. *)

val pending : t -> int
