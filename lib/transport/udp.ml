(* IPv4 UDP datagrams over [Unix] sockets.  A packed address fits
   simnet's [int] convention: IPv4 as a u32 in the high bits, port in
   the low 16 — 48 bits total, comfortably inside an OCaml int. *)

let pack ~ip ~port = (ip lsl 16) lor (port land 0xffff)
let port_of a = a land 0xffff
let ip_of a = (a lsr 16) land 0xffffffff

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let n x =
          let v = int_of_string x in
          if v < 0 || v > 255 then failwith "octet" else v
        in
        Some ((n a lsl 24) lor (n b lsl 16) lor (n c lsl 8) lor n d)
      with _ -> None)
  | _ -> None

let string_of_ip ip =
  Printf.sprintf "%d.%d.%d.%d"
    ((ip lsr 24) land 0xff)
    ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff)
    (ip land 0xff)

let addr_of_sockaddr = function
  | Unix.ADDR_INET (ia, port) -> (
      match ip_of_string (Unix.string_of_inet_addr ia) with
      | Some ip -> Some (pack ~ip ~port)
      | None -> None (* IPv6 peer: unrepresentable, drop *))
  | Unix.ADDR_UNIX _ -> None

let sockaddr_of_addr a =
  Unix.ADDR_INET (Unix.inet_addr_of_string (string_of_ip (ip_of a)), port_of a)

(* Per-packet address translation goes through two small caches, one
   per direction, so the hot path never formats or parses a dotted quad.
   Peer addresses arrive from the wire, so each cache is emptied when it
   reaches [cache_cap] entries instead of growing without limit; a miss
   only costs the conversion above. *)
let cache_cap = 1024

module Itbl = Hashtbl.Make (Int)

type t = {
  sock : Unix.file_descr;
  local : int;
  buf : Bytes.t;
  mutable handler : src:int -> string -> unit;
  rx_addrs : (Unix.sockaddr, int) Hashtbl.t;
  tx_addrs : Unix.sockaddr Itbl.t;
}

(* The receive buffer is sized from [Wire.Layout]: a maximal legal
   frame (maximal-depth stack of wide entries + maximal payload) is
   exactly one maximal datagram, so a buffer of [max_datagram] bytes
   can never truncate a frame a codec may legally produce. *)
let max_datagram = Wire.Layout.max_datagram

let create ?(host = "127.0.0.1") ?(port = 0) () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (* Ask for socket buffers that hold several maximal datagrams: the
     kernel default drops bursts of big frames on loopback before the
     daemon ever sees them, which reads as loss the fault layer never
     injected.  Best effort: some sandboxes refuse setsockopt, and the
     kernel clamps to its limits. *)
  (try Unix.setsockopt_int sock Unix.SO_RCVBUF (8 * max_datagram)
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_int sock Unix.SO_SNDBUF (8 * max_datagram)
   with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (* Non-blocking, so a receive drains the queue until EAGAIN without a
     [select] per datagram. *)
  Unix.set_nonblock sock;
  let local =
    match addr_of_sockaddr (Unix.getsockname sock) with
    | Some a -> a
    | None -> failwith "Transport.Udp.create: non-IPv4 local address"
  in
  {
    sock;
    local;
    buf = Bytes.create max_datagram;
    handler = (fun ~src:_ _ -> ());
    rx_addrs = Hashtbl.create 64;
    tx_addrs = Itbl.create 64;
  }

let tx_sockaddr t dst =
  match Itbl.find t.tx_addrs dst with
  | sa -> sa
  | exception Not_found ->
      if Itbl.length t.tx_addrs >= cache_cap then Itbl.reset t.tx_addrs;
      let sa = sockaddr_of_addr dst in
      Itbl.add t.tx_addrs dst sa;
      sa

let rx_addr t peer =
  match Hashtbl.find t.rx_addrs peer with
  | a -> Some a
  | exception Not_found -> (
      match addr_of_sockaddr peer with
      | Some a as found ->
          if Hashtbl.length t.rx_addrs >= cache_cap then
            Hashtbl.reset t.rx_addrs;
          Hashtbl.add t.rx_addrs peer a;
          found
      | None -> None)

(* Send straight out of the string.  A full socket buffer (EAGAIN on
   the non-blocking socket) waits until the socket is writable and
   retries, so a send still blocks as it did on a blocking socket.
   Top-level rather than a local loop: no closure per datagram. *)
let rec sendto sock bytes len sa =
  match Unix.sendto_substring sock bytes 0 len [] sa with
  | (_ : int) -> ()
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      (try ignore (Unix.select [] [ sock ] [] (-1.))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      sendto sock bytes len sa

let send t ~dst bytes =
  let len = String.length bytes in
  if len > max_datagram then invalid_arg "Transport.Udp.send: datagram too large";
  sendto t.sock bytes len (tx_sockaddr t dst)

let set_handler t h = t.handler <- h
let local_addr t = t.local

(* Hand every queued datagram to the handler: [recvfrom] on the
   non-blocking socket until EAGAIN (or EINTR).  Returns how many were
   handled. *)
let rec drain t n =
  match Unix.recvfrom t.sock t.buf 0 max_datagram [] with
  | len, peer -> (
      match rx_addr t peer with
      | Some src ->
          t.handler ~src (Bytes.sub_string t.buf 0 len);
          drain t (n + 1)
      | None -> drain t n)
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      n

(* Block up to [timeout] seconds until the socket is readable, then
   drain it: one [select] per loop turn however many datagrams wait.
   Returns whether any datagram was handled. *)
let wait t ~timeout =
  match Unix.select [ t.sock ] [] [] timeout with
  | [], _, _ -> false
  | _ -> drain t 0 > 0

(* The [Transport.S] maintenance step: dispatch every datagram already
   queued on the socket.  The socket is non-blocking, so this never
   waits and needs no [select]. *)
let poll t ~now:_ = ignore (drain t 0)

let close t = Unix.close t.sock
