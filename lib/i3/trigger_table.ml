(* Compressed binary (Patricia) trie over the 256-bit identifier space.

   Layout.  Internal nodes carry a critical bit index; every key stored
   under a branch agrees on all bits before it, and the branch's two
   subtrees split on that bit (0 left, 1 right).  Leaves hold the entry
   list for one full identifier (a multicast group is one leaf with many
   entries).  In-trie order is therefore numeric id order, which is what
   the old sorted-bucket representation exposed through [bucket_of].
   Both node kinds are inline records: one heap block per trie level.

   Matching (Sec. II-B).  Descending from the root by the packet id's
   bits reaches a leaf L whose key has the maximal common prefix d with
   the packet (the classic crit-bit property).  If d < k = 128 nothing
   matches.  Otherwise the winner subtree is found by re-descending
   while [branch.bit < d]: every key in it shares exactly d bits with
   the packet (a key agreeing on bit d as well would contradict L's
   maximality), and its leftmost leaf is the smallest winning id — the
   deterministic tie-break.  If the whole winner subtree is dead, the
   off-path siblings on the way back up are the fallbacks: the sibling
   hanging off a path branch with bit b < d contains exactly the keys
   sharing b bits with the packet, so trying them in decreasing-b order
   (stopping below k) continues the longest-prefix search without ever
   touching an unrelated subtree.

   Expiry is lazy.  Every stored entry owns exactly one slot of a binary
   min-heap whose deadline keys sit unboxed in a [Float.Array], with the
   entries in a parallel array.  A refresh only raises [e.expires]; the
   slot keeps its older deadline, and when [expire] pops it the entry is
   re-armed at its current deadline instead of dropped.  Entries removed
   or pruned elsewhere carry a [dead] flag and pop as no-ops.  Branches
   and leaves cache a stale-high bound over their deadlines (int ms,
   rounded up, only ever raised), so a match descent prunes wholly-dead
   subtrees in one comparison instead of walking them. *)

type entry = {
  trigger : Trigger.t;
  mutable expires : float;
  mutable dead : bool; (* out of its leaf; its heap slot pops as a no-op *)
}

type node =
  | Leaf of {
      key : string; (* 32-byte big-endian identifier *)
      mutable entries : entry list; (* same full id; newest first *)
      mutable lmax : int; (* stale-high bound over [entries], ms *)
    }
  | Branch of {
      bit : int; (* critical bit, 0 = most significant *)
      mutable zero : node;
      mutable one : node;
      mutable bmax : int; (* stale-high bound over the subtree, ms *)
    }

type t = {
  mutable root : node option;
  mutable count : int;
  mutable keys : Float.Array.t; (* binary min-heap of slot deadlines *)
  mutable slots : entry array; (* the entry owning each key *)
  mutable heap_len : int;
}

let create () =
  { root = None; count = 0; keys = Float.Array.create 0; slots = [||]; heap_len = 0 }

let clear t =
  t.root <- None;
  t.count <- 0;
  t.keys <- Float.Array.create 0;
  t.slots <- [||];
  t.heap_len <- 0

(* -- bit twiddling over raw 32-byte keys ------------------------------- *)

let key_bit key i = Char.code key.[i lsr 3] land (0x80 lsr (i land 7)) <> 0

(* Length of the common bit prefix of two equal-length raw keys. *)
let lcp a b =
  let n = String.length a in
  let rec bytes i =
    if i = n then n * 8
    else
      let x = Char.code a.[i] lxor Char.code b.[i] in
      if x = 0 then bytes (i + 1)
      else
        let rec top j = if x land (0x80 lsr j) <> 0 then j else top (j + 1) in
        (i * 8) + top 0
  in
  bytes 0

(* A deadline as a stale-high int bound: rounded up to whole ms, with
   anything past the int range (+inf included) clamped to [max_int]. *)
let ceil_ms x =
  if not (x < 4e18) then max_int
  else if x < -4e18 then -4_000_000_000_000_000_000
  else
    let i = int_of_float x in
    if float_of_int i < x then i + 1 else i

(* A bound of [b] ms proves every deadline below it has passed;
   [max_int] stands for "beyond the int range" and never does. *)
let dead_by b ~now = b < max_int && float_of_int b <= now

(* -- expiry heap ------------------------------------------------------- *)

(* Fill the hole at [i] with [(k, e)], moving it up past larger keys. *)
let sift_up t i k e =
  let keys = t.keys and slots = t.slots in
  let i = ref i in
  while !i > 0 && Float.Array.get keys ((!i - 1) / 2) > k do
    let p = (!i - 1) / 2 in
    Float.Array.set keys !i (Float.Array.get keys p);
    slots.(!i) <- slots.(p);
    i := p
  done;
  Float.Array.set keys !i k;
  slots.(!i) <- e

(* Fill the hole at the root with [(k, e)], moving it down past
   smaller keys. *)
let sift_down t k e =
  let keys = t.keys and slots = t.slots and n = t.heap_len in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < n && Float.Array.get keys (l + 1) < Float.Array.get keys l
      then l + 1
      else l
    in
    if c < n && Float.Array.get keys c < k then begin
      Float.Array.set keys !i (Float.Array.get keys c);
      slots.(!i) <- slots.(c);
      i := c
    end
    else continue := false
  done;
  Float.Array.set keys !i k;
  slots.(!i) <- e

let heap_push t e =
  let n = t.heap_len in
  if n = Array.length t.slots then begin
    let cap = max 16 (2 * n) in
    let keys = Float.Array.create cap and slots = Array.make cap e in
    Float.Array.blit t.keys 0 keys 0 n;
    Array.blit t.slots 0 slots 0 n;
    t.keys <- keys;
    t.slots <- slots
  end;
  t.heap_len <- n + 1;
  sift_up t n e.expires e

(* -- structural helpers ------------------------------------------------ *)

let rec leaf_toward key = function
  | Branch b -> leaf_toward key (if key_bit key b.bit then b.one else b.zero)
  | leaf -> leaf

let rec some_key = function Leaf l -> l.key | Branch b -> some_key b.zero

(* Stands in for the root's missing parent in [unlink_empty]. *)
let no_parent = Leaf { key = ""; entries = []; lmax = 0 }

(* Detach the (empty) leaf holding [key], collapsing its parent branch
   into the sibling.  A no-op if the key's descent lands elsewhere or the
   leaf has entries again — safe to call speculatively from the heap. *)
let unlink_empty t key =
  let empty = function
    | Leaf l -> l.entries = [] && String.equal l.key key
    | Branch _ -> false
  in
  let rec go parent n =
    match n with
    | Leaf _ -> ()
    | Branch b ->
        let right = key_bit key b.bit in
        let child = if right then b.one else b.zero in
        if not (empty child) then go n child
        else begin
          let sibling = if right then b.zero else b.one in
          match parent with
          | Branch p ->
              if key_bit key p.bit then p.one <- sibling else p.zero <- sibling
          | Leaf _ -> t.root <- Some sibling
        end
  in
  match t.root with
  | Some root when empty root -> t.root <- None
  | Some root -> go no_parent root
  | None -> ()

let rec all_live now = function
  | [] -> true
  | e :: rest -> e.expires > now && all_live now rest

(* The live entries of a leaf in stored order.  The all-live steady
   state returns the list as it is; otherwise time-dead entries leave
   the leaf, flagged so their heap slots pop as no-ops. *)
let live_entries t ~now = function
  | Branch _ -> []
  | Leaf l ->
      if all_live now l.entries then l.entries
      else begin
        let live, gone = List.partition (fun e -> e.expires > now) l.entries in
        List.iter (fun e -> e.dead <- true) gone;
        l.entries <- live;
        t.count <- t.count - List.length gone;
        live
      end

let rec triggers_of = function [] -> [] | e :: rest -> e.trigger :: triggers_of rest

(* Live triggers of the leftmost leaf that has any, pruning via the
   cached bounds; [] when the whole subtree is dead. *)
let rec leftmost_live t ~now = function
  | Leaf l as n ->
      if dead_by l.lmax ~now then [] else triggers_of (live_entries t ~now n)
  | Branch b ->
      if dead_by b.bmax ~now then []
      else
        match leftmost_live t ~now b.zero with
        | [] -> leftmost_live t ~now b.one
        | live -> live

(* -- insert ------------------------------------------------------------ *)

(* Extend the entry holding [trigger]'s binding; [false] if none does. *)
let rec extend expires trigger = function
  | [] -> false
  | e :: rest ->
      if Trigger.same_binding e.trigger trigger then begin
        if expires > e.expires then e.expires <- expires;
        true
      end
      else extend expires trigger rest

let add_entry t entries expires trigger =
  let e = { trigger; expires; dead = false } in
  t.count <- t.count + 1;
  heap_push t e;
  e :: entries

let new_leaf t key ms expires trigger =
  Leaf { key; entries = add_entry t [] expires trigger; lmax = ms }

(* One descent for a refresh: raise every bound on the way down to
   [key]'s leaf (harmless when nothing moves: a stale-high bound may
   always grow), then extend the binding or join the group there.
   Returns [Id.bits] when done, else the common-prefix length with the
   leaf reached, where a new identifier must be spliced in. *)
let rec refresh t key ms expires trigger = function
  | Branch b ->
      if b.bmax < ms then b.bmax <- ms;
      refresh t key ms expires trigger
        (if key_bit key b.bit then b.one else b.zero)
  | Leaf l ->
      if not (String.equal key l.key) then lcp key l.key
      else begin
        if l.lmax < ms then l.lmax <- ms;
        if not (extend expires trigger l.entries) then
          l.entries <- add_entry t l.entries expires trigger;
        Id.bits
      end

(* Hang [leaf] at critical bit [d] below the path branches splitting
   above it (their bounds were raised by [refresh]). *)
let rec splice key d ms leaf = function
  | Branch b as n when b.bit < d ->
      if key_bit key b.bit then b.one <- splice key d ms leaf b.one
      else b.zero <- splice key d ms leaf b.zero;
      n
  | old ->
      let old_max = match old with Leaf l -> l.lmax | Branch b -> b.bmax in
      let bmax = max ms old_max in
      if key_bit key d then Branch { bit = d; zero = old; one = leaf; bmax }
      else Branch { bit = d; zero = leaf; one = old; bmax }

let insert t ~now ~expires trigger =
  (* Total by design (replica/cache re-inserts race the clock): an entry
     already past its deadline — or carrying a NaN from a hostile wire
     lifetime — is silently dropped, never stored.  [not (> )] rather
     than [<=] so NaN fails the guard too. *)
  if expires > now then begin
    let key = Id.to_raw_string trigger.Trigger.id in
    let ms = ceil_ms expires in
    match t.root with
    | None -> t.root <- Some (new_leaf t key ms expires trigger)
    | Some root ->
        let d = refresh t key ms expires trigger root in
        if d < Id.bits then
          t.root <- Some (splice key d ms (new_leaf t key ms expires trigger) root)
  end

(* -- removal ----------------------------------------------------------- *)

let remove_where t id pred =
  let key = Id.to_raw_string id in
  match Option.map (leaf_toward key) t.root with
  | Some (Leaf l) when String.equal l.key key ->
      let gone, keep = List.partition pred l.entries in
      List.iter (fun e -> e.dead <- true) gone;
      l.entries <- keep;
      let n = List.length gone in
      t.count <- t.count - n;
      if n > 0 && keep = [] then unlink_empty t key;
      n
  | _ -> 0

let remove t trigger =
  remove_where t trigger.Trigger.id (fun e ->
      Trigger.same_binding e.trigger trigger)
  > 0

let remove_matching t ~id ~target =
  remove_where t id (fun e ->
      match Trigger.target_id e.trigger with
      | Some tid -> Id.equal tid target
      | None -> false)

(* -- matching ---------------------------------------------------------- *)

(* Longest-prefix search below [n] for a packet sharing [d] bits with
   its nearest key: descend while the branch splits above bit [d]; the
   node reached is the winner subtree.  When it is wholly dead, each
   off-path sibling on the way back up (deepest first, none splitting
   below the k-bit threshold) is the next-longest-prefix candidate. *)
let rec search t ~now key d = function
  | Branch b when b.bit < d -> (
      let right = key_bit key b.bit in
      match search t ~now key d (if right then b.one else b.zero) with
      | [] when b.bit >= Id.prefix_bits ->
          leftmost_live t ~now (if right then b.zero else b.one)
      | found -> found)
  | winner -> leftmost_live t ~now winner

let find_matches t ~now pid =
  match t.root with
  | None -> []
  | Some root -> (
      let key = Id.to_raw_string pid in
      let l0 = leaf_toward key root in
      let k0 = some_key l0 in
      (* [String.equal] is a memcmp — much cheaper than the bitwise scan —
         and an exact hit is the data path's steady state. *)
      if String.equal key k0 then
        match leftmost_live t ~now l0 with
        | [] -> search t ~now key Id.bits root
        | found -> found
      else
        let d = lcp key k0 in
        if d < Id.prefix_bits then [] else search t ~now key d root)

(* -- bucket views ------------------------------------------------------ *)

(* The subtree holding every id that shares the k-bit prefix of [pid]:
   descend through branches splitting above bit k, then confirm with any
   resident key (all keys below the stop point share its k-bit prefix). *)
let prefix_subtree t pid =
  let key = Id.to_raw_string pid in
  let rec go = function
    | Branch b when b.bit < Id.prefix_bits ->
        go (if key_bit key b.bit then b.one else b.zero)
    | n -> n
  in
  match Option.map go t.root with
  | Some n when lcp key (some_key n) >= Id.prefix_bits -> Some n
  | _ -> None

let rec fold_leaves f acc = function
  | Leaf _ as n -> f acc n
  | Branch b -> fold_leaves f (fold_leaves f acc b.zero) b.one

let bucket_map t ~now pid f =
  match prefix_subtree t pid with
  | None -> []
  | Some n ->
      fold_leaves
        (fun acc l ->
          List.fold_left (fun acc e -> f e :: acc) acc (live_entries t ~now l))
        [] n
      |> List.rev

let bucket_of t ~now pid = bucket_map t ~now pid (fun e -> e.trigger)

let bucket_entries t ~now pid =
  bucket_map t ~now pid (fun e -> (e.trigger, e.expires -. now))

(* -- expiry ------------------------------------------------------------ *)

(* Pop every slot due by [now].  A refreshed entry is re-armed at its
   current deadline (its one slot moves down the heap); a dead entry's
   slot is a no-op, beyond collecting a leaf a match-time prune left
   empty; only an entry still at its deadline is dropped. *)
let expire t ~now =
  let dropped = ref 0 in
  while t.heap_len > 0 && Float.Array.get t.keys 0 <= now do
    let e = t.slots.(0) in
    let key = Id.to_raw_string e.trigger.Trigger.id in
    if (not e.dead) && e.expires > now then sift_down t e.expires e
    else begin
      let n = t.heap_len - 1 in
      t.heap_len <- n;
      sift_down t (Float.Array.get t.keys n) t.slots.(n);
      if not e.dead then begin
        e.dead <- true;
        t.count <- t.count - 1;
        incr dropped;
        match Option.map (leaf_toward key) t.root with
        | Some (Leaf l) -> l.entries <- List.filter (fun x -> x != e) l.entries
        | _ -> ()
      end;
      unlink_empty t key
    end
  done;
  !dropped

let size t = t.count

let iter t f =
  Option.iter
    (fold_leaves
       (fun () -> function
         | Leaf l -> List.iter (fun e -> f e.trigger ~expires:e.expires) l.entries
         | Branch _ -> ())
       ())
    t.root
