(* Outstanding-op accounting for the load generator.

   An op is a data packet (complete once all of its [legs] Deliver
   frames arrived: 1 for unicast, one per fan-out tag) or a refresh
   Insert (complete on its Insert_ack, one leg).  Ops get consecutive
   sequence numbers and live in a ring of slots indexed by
   [seq land (cap - 1)], so sending, completion and expiry are O(1) and
   allocate nothing.

   Every op carries the time it was due.  Its latency is measured from
   that time, not from when it was actually sent: in an open loop a
   generator that falls behind still charges the wait to the system, as
   a user arriving on schedule would see it.  In a closed loop an op is
   due when it is sent.

   An op still pending [deadline] after it was sent fails and frees
   its place in the window.  A leg that arrives twice, or a frame naming
   no op that was sent, fails as well. *)

type outcome =
  | Done of int  (** the op's last leg: latency in ns from its due time *)
  | Partial  (** a leg of a fan-out op that still awaits others *)
  | Late  (** a leg of an op that already failed; ignored *)
  | Duplicate  (** a leg seen before: the op counts as failed *)
  | Stray  (** no such op was sent: one more failed op *)

let free = 0
let pending = 1
let done_ = 2
let failed_ = 3

type t = {
  mask : int;
  deadline : int;
  seq : int array;  (** which op each slot holds *)
  state : int array;
  due : int array;
  sent : int array;  (** when the op was sent *)
  legs : int array;  (** legs still to come *)
  seen : int array;  (** bitmask of legs already arrived *)
  data : bool array;  (** a data packet (else a refresh Insert) *)
  mutable next : int;  (** the next sequence number *)
  mutable oldest : int;  (** no op below this is pending *)
  mutable in_flight : int;
  mutable in_flight_data : int;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
}

let create ~cap ~deadline_ns =
  if cap <= 0 || cap land (cap - 1) <> 0 then
    invalid_arg "Ops.create: cap must be a power of two";
  {
    mask = cap - 1;
    deadline = deadline_ns;
    seq = Array.make cap (-1);
    state = Array.make cap free;
    due = Array.make cap 0;
    sent = Array.make cap 0;
    legs = Array.make cap 0;
    seen = Array.make cap 0;
    data = Array.make cap false;
    next = 0;
    oldest = 0;
    in_flight = 0;
    in_flight_data = 0;
    attempted = 0;
    completed = 0;
    failed = 0;
  }

let settle t i st =
  t.state.(i) <- st;
  t.in_flight <- t.in_flight - 1;
  if t.data.(i) then t.in_flight_data <- t.in_flight_data - 1;
  if st = failed_ then t.failed <- t.failed + 1
  else t.completed <- t.completed + 1

(* Fail every pending op sent [deadline] or more before [now]; returns
   how many failed.  Ops are sent in sequence order, so the scan stops
   at the first one still inside its deadline. *)
let expire t ~now =
  let before = t.failed in
  let rec go () =
    if t.oldest < t.next then begin
      let i = t.oldest land t.mask in
      if t.state.(i) <> pending then begin
        t.oldest <- t.oldest + 1;
        go ()
      end
      else if now - t.sent.(i) >= t.deadline then begin
        settle t i failed_;
        t.oldest <- t.oldest + 1;
        go ()
      end
    end
  in
  go ();
  t.failed - before

(* Record an op sent at [now] and due at [due]; returns its sequence
   number. *)
let start t ~now ~due ~legs ~data =
  if legs < 1 || legs > 62 then invalid_arg "Ops.start: legs";
  let s = t.next in
  let i = s land t.mask in
  (* The ring is sized far above rate x deadline; if it ever wraps onto
     a pending op anyway, that op has waited a whole ring and fails. *)
  if t.state.(i) = pending then settle t i failed_;
  t.seq.(i) <- s;
  t.state.(i) <- pending;
  t.due.(i) <- due;
  t.sent.(i) <- now;
  t.legs.(i) <- legs;
  t.seen.(i) <- 0;
  t.data.(i) <- data;
  t.next <- s + 1;
  t.in_flight <- t.in_flight + 1;
  if data then t.in_flight_data <- t.in_flight_data + 1;
  t.attempted <- t.attempted + 1;
  s

let leg t ~now ~seq ~leg =
  let i = seq land t.mask in
  if seq < 0 || seq >= t.next || t.seq.(i) <> seq || leg < 0 || leg > 61 then begin
    t.failed <- t.failed + 1;
    Stray
  end
  else
    let st = t.state.(i) in
    let bit = 1 lsl leg in
    if st = failed_ then Late
    else if st = done_ || t.seen.(i) land bit <> 0 then begin
      if st = pending then settle t i failed_ else t.failed <- t.failed + 1;
      Duplicate
    end
    else begin
      t.seen.(i) <- t.seen.(i) lor bit;
      t.legs.(i) <- t.legs.(i) - 1;
      if t.legs.(i) > 0 then Partial
      else begin
        settle t i done_;
        Done (now - t.due.(i))
      end
    end

(* Fail a pending op outright (its frame carried wrong bytes). *)
let fail t ~seq =
  let i = seq land t.mask in
  if seq >= 0 && seq < t.next && t.seq.(i) = seq && t.state.(i) = pending then
    settle t i failed_

let is_pending t ~seq =
  let i = seq land t.mask in
  seq >= 0 && seq < t.next && t.seq.(i) = seq && t.state.(i) = pending

let in_flight t = t.in_flight
let in_flight_data t = t.in_flight_data
let attempted t = t.attempted
let completed t = t.completed
let failed t = t.failed
