(** IPv4 UDP datagrams over [Unix] sockets.  Addresses pack an IPv4
    address and port into one int — [(ip << 16) | port], 48 bits — so
    the simulated and real transports share simnet's address type.
    Socket buffers are sized from {!Wire.Layout.max_datagram} so a
    maximal legal frame is never truncated on receive.

    The socket is in blocking mode, so {!wait} sleeps inside [recvfrom]
    itself.  A drain hands over every queued datagram with [recvfrom]
    until EAGAIN, switching the socket to non-blocking mode for just
    that drain, and only after [select] has seen one queued.  Packed
    addresses are translated to and from [Unix.sockaddr] through two
    caches (receive and send) of at most {!cache_cap} entries each. *)

type t

val create : ?host:string -> ?port:int -> unit -> t
(** Bind a datagram socket ([host] default ["127.0.0.1"], [port]
    default 0 = ephemeral).  @raise Unix.Unix_error when binding is
    not permitted (sandboxes) — callers should degrade gracefully. *)

val send : t -> dst:int -> string -> unit
(** Fire-and-forget datagram; best-effort, unordered.  Sends straight
    from the string; if the socket buffer is full it waits until the
    socket is writable and retries, so a send blocks as on a blocking
    socket.  @raise Invalid_argument beyond {!max_datagram} bytes. *)

val set_handler : t -> (src:int -> string -> unit) -> unit
(** Replace the receive callback. *)

val local_addr : t -> int

val wait : t -> timeout:float -> bool
(** Block up to [timeout] seconds for a datagram, then drain: hand every
    queued datagram to the handler, in arrival order, so a receive loop
    needs no {!poll} after it.  The first is handed over as soon as it
    is read, before the rest are received.  Returns whether any
    arrived.  The sleep is a blocking [recvfrom] whose timeout is
    [timeout] rounded down to the millisecond, which the kernel then
    rounds up to its scheduler tick; a [timeout] under 10 ms sleeps in
    [select] instead, to the microsecond.
    @raise Unix.Unix_error [EINTR] when a signal interrupts the
    sleep. *)

val poll : t -> now:float -> unit
(** The {!Transport.S} maintenance step: dispatch every datagram
    already queued on the socket.  Never blocks: one zero-timeout
    [select], and a drain only if it saw a datagram ([now] is unused —
    the socket has no internal timers — but keeps the uniform driver
    convention). *)

val close : t -> unit

(** {2 Address packing} *)

val pack : ip:int -> port:int -> int
val ip_of : int -> int
val port_of : int -> int
val ip_of_string : string -> int option
val string_of_ip : int -> string
val addr_of_sockaddr : Unix.sockaddr -> int option
val sockaddr_of_addr : int -> Unix.sockaddr

val max_datagram : int
(** [Wire.Layout.max_datagram]. *)

val cache_cap : int
(** Entries each address cache holds before it is emptied and refilled:
    peer addresses come from the wire, so neither cache may grow without
    limit. *)
