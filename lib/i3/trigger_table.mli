(** Per-server trigger storage with the paper's inexact matching rule.

    Matching (Sec. II-B): a trigger id [t] matches a packet id [p] iff
    (1) they share at least k = 128 leading bits and (2) no stored trigger
    has a longer prefix match with [p].  Because all identifiers sharing a
    k-bit prefix live on the same server (Sec. IV-A), the longest-prefix
    search is local: the table is a compressed binary (Patricia) trie over
    the full 256-bit identifiers, so insert, remove and longest-prefix
    match are O(key length) with no per-bucket list walks — sized for 10^6
    resident triggers.  All triggers with the *winning identifier* match
    (one trie leaf holds the whole group) — that is what makes multicast
    "many triggers with the same id" (Sec. II-D2) work with no special
    casing.

    Entries are soft state with absolute expiry timestamps (virtual-time
    ms); refreshing re-inserts the same binding with a later deadline.
    Expiry is lazy: every entry owns one slot of a min-heap of unboxed
    deadlines.  A refresh only moves the entry's deadline; when [expire]
    pops a slot whose entry was refreshed, it re-arms the slot at the
    current deadline, so [expire] touches only due slots instead of
    sweeping the whole table.  Trie nodes are inline records and cache
    a stale-high bound over their subtree's deadlines as int ms (rounded
    up), letting a match skip dead subtrees. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every binding (a restarting server's soft state dies with it). *)

val insert : t -> now:float -> expires:float -> Trigger.t -> unit
(** Insert or refresh a binding. If an entry with the same id, stack and
    owner exists, only its expiry is extended.  Total: an already-expired
    deadline ([expires <= now], or NaN from a hostile wire lifetime) is
    silently dropped — replica and cache re-insert paths race the clock
    and must never crash the engine step. *)

val remove : t -> Trigger.t -> bool
(** Remove an exact binding; [false] if absent. *)

val remove_matching : t -> id:Id.t -> target:Id.t -> int
(** Remove every trigger with identifier [id] whose stack head is
    [Sid target]: the pushback primitive (Sec. IV-J2). Returns the number
    removed. *)

val find_matches : t -> now:float -> Id.t -> Trigger.t list
(** Longest-prefix matching: all live triggers holding the winning
    identifier (ties on prefix length broken toward the smaller id, for
    determinism), or [] if nothing reaches the k-bit threshold. *)

val bucket_of : t -> now:float -> Id.t -> Trigger.t list
(** All live triggers sharing the k-bit prefix of the given id — the unit
    pushed to a neighbor when a trigger becomes hot, because caching a
    partial bucket could make a cached longest-prefix answer wrong
    (Sec. IV-F). *)

val bucket_entries : t -> now:float -> Id.t -> (Trigger.t * float) list
(** Like {!bucket_of} but paired with each trigger's remaining lifetime in
    ms — the payload of a hot-spot push. *)

val expire : t -> now:float -> int
(** Drop entries past their deadline; returns how many were dropped. *)

val size : t -> int
(** Number of stored bindings, including not-yet-collected expired ones. *)

val iter : t -> (Trigger.t -> expires:float -> unit) -> unit
