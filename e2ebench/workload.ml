(* The three workloads, and everything the generator derives from the
   seed: trigger ids, fan-out tags, the id stream data packets draw
   from, and the order triggers are refreshed in.

   Why each exists (see README.md for the per-layer predictions):
   - unicast_64b: a small trigger set that stays in cache, so the fixed
     per-packet path dominates (receive, decode, step, encode, send).
   - soft_state_100k: a trigger set far larger than the cache, with a
     refresh Insert stream beside the data packets, so the trie and the
     soft-state writes do most of the work.
   - fanout8_1k: eight triggers per id and 1 KiB payloads, so each
     packet becomes eight Deliver frames and the send side dominates. *)

type spec = {
  name : string;
  ids : int;  (** distinct trigger identifiers *)
  fanout : int;  (** triggers per identifier, each with its own tag *)
  payload : int;  (** bytes *)
  window : int;  (** data packets in flight in the closed phase *)
  rate : float;  (** data packets/s offered in the open phase *)
}

(* Every resident trigger is refreshed once per this period: the
   client's default, a third of the daemon's 30 s soft-state lifetime,
   so no run loses state to expiry however long it lasts. *)
let refresh_period_s = 10.

let specs =
  [
    { name = "unicast_64b"; ids = 1_000; fanout = 1; payload = 64; window = 64;
      rate = 40_000. };
    { name = "soft_state_100k"; ids = 100_000; fanout = 1; payload = 64;
      window = 64; rate = 20_000. };
    { name = "fanout8_1k"; ids = 128; fanout = 8; payload = 1024; window = 16;
      rate = 8_000. };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs
let triggers spec = spec.ids * spec.fanout
let refresh_rate spec = float_of_int (triggers spec) /. refresh_period_s

type t = {
  spec : spec;
  seed : int;
  ids : Id.t array;
  tags : Id.t array;  (** one per fan-out leg; empty for unicast *)
  refresh_order : int array;  (** a permutation of trigger indices *)
  check : Check.t;
}

let generate (spec : spec) ~seed =
  let rng = Rng.of_int seed in
  let fresh = Hashtbl.create (spec.ids + spec.fanout) in
  let rec distinct () =
    let id = Id.random rng in
    if Hashtbl.mem fresh id then distinct ()
    else begin
      Hashtbl.replace fresh id ();
      id
    end
  in
  let ids = Array.init spec.ids (fun _ -> distinct ()) in
  let tags =
    if spec.fanout = 1 then [||] else Array.init spec.fanout (fun _ -> distinct ())
  in
  let refresh_order = Array.init (triggers spec) Fun.id in
  Rng.shuffle rng refresh_order;
  { spec; seed; ids; tags; refresh_order; check = Check.create ~seed ~size:spec.payload }

(* Trigger [i] binds identifier [i / fanout]; a fan-out trigger also
   carries tag [i mod fanout] behind the generator's address (paper
   Sec. II-D2 multicast: distinct bindings sharing one identifier). *)
let trigger w ~gen i =
  let f = w.spec.fanout in
  let stack =
    if f = 1 then [ I3.Packet.Saddr gen ]
    else [ I3.Packet.Saddr gen; I3.Packet.Sid w.tags.(i mod f) ]
  in
  I3.Trigger.make ~id:w.ids.(i / f) ~stack ~owner:gen

(* The data packets' identifier stream: uniform over the resident ids,
   reproducible from the seed. *)
let id_stream w = Rng.of_int (w.seed lxor 0x1d5_7ea3)
let next_id w rng = Rng.int rng w.spec.ids

(* Fan-out leg of a delivered stack tag ([None]: a unicast delivery). *)
let tag_index w =
  let by_tag = Hashtbl.create 16 in
  Array.iteri (fun i tag -> Hashtbl.replace by_tag tag i) w.tags;
  fun tag ->
    match (tag, w.spec.fanout) with
    | None, 1 -> Some 0
    | Some tag, f when f > 1 -> Hashtbl.find_opt by_tag tag
    | _ -> None

(* Trigger index of an acknowledged binding, for matching Insert_acks
   to their refresh ops. *)
let trigger_index w =
  let by_id = Hashtbl.create (2 * w.spec.ids) in
  Array.iteri (fun i id -> Hashtbl.replace by_id id i) w.ids;
  let leg = tag_index w in
  fun (tr : I3.Trigger.t) ->
    match (Hashtbl.find_opt by_id tr.I3.Trigger.id, tr.I3.Trigger.stack) with
    | Some i, [ I3.Packet.Saddr _ ] when w.spec.fanout = 1 -> Some i
    | Some i, [ I3.Packet.Saddr _; I3.Packet.Sid tag ] -> (
        match leg (Some tag) with
        | Some j -> Some ((i * w.spec.fanout) + j)
        | None -> None)
    | _ -> None
