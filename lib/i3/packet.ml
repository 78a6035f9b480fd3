type addr = Net.addr

type stack_entry = Sid of Id.t | Saddr of addr

let pp_entry ppf = function
  | Sid id -> Format.fprintf ppf "id:%a" Id.pp id
  | Saddr a -> Format.fprintf ppf "addr:%a" Net.pp_addr a

let entry_equal a b =
  match (a, b) with
  | Sid x, Sid y -> Id.equal x y
  | Saddr x, Saddr y -> x = y
  | Sid _, Saddr _ | Saddr _, Sid _ -> false

type stack = stack_entry list

let pp_stack ppf s =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_entry)
    s

let stack_equal a b =
  List.length a = List.length b && List.for_all2 entry_equal a b

let max_stack_depth = Wire.Layout.max_stack_depth
let default_ttl = 32
let header_bytes = Wire.Layout.header_bytes

(* A decoded packet's payload stays a borrowed slice of the receive
   buffer (the frame string the transport handed us) until something
   needs the bytes as a string — delivery to a host, usually.  A
   server-forwarded packet therefore never copies its payload: decode
   slices, encode writes the slice straight back out.  [payload_string]
   memoizes the materialization so repeated reads copy once. *)
type payload_repr = P_owned of string | P_slice of Wire.Io.view
type payload = { mutable repr : payload_repr }

let payload_of_string s = { repr = P_owned s }

type t = {
  stack : stack;
  payload : payload;
  refresh : bool;
  match_required : bool;
  sender : addr option;
  prev_trigger : (addr * Id.t) option;
  ttl : int;
  trace : int;
}

let payload_string t =
  match t.payload.repr with
  | P_owned s -> s
  | P_slice v ->
      let s = Wire.Io.view_to_string v in
      t.payload.repr <- P_owned s;
      s

let payload_length t =
  match t.payload.repr with
  | P_owned s -> String.length s
  | P_slice v -> Wire.Io.view_length v

(* Structural [=] no longer means what it used to: a decoded packet
   borrows its payload while a built one owns it, so equality must go
   through the bytes. *)
let equal a b =
  stack_equal a.stack b.stack
  && String.equal (payload_string a) (payload_string b)
  && a.refresh = b.refresh
  && a.match_required = b.match_required
  && a.sender = b.sender
  && (match (a.prev_trigger, b.prev_trigger) with
     | None, None -> true
     | Some (aa, ai), Some (ba, bi) -> aa = ba && Id.equal ai bi
     | Some _, None | None, Some _ -> false)
  && a.ttl = b.ttl
  && a.trace = b.trace

let make ?(refresh = false) ?(match_required = false) ?sender
    ?(ttl = default_ttl) ?(trace = 0) ~stack ~payload () =
  if stack = [] then invalid_arg "Packet.make: empty identifier stack";
  if List.length stack > max_stack_depth then
    invalid_arg "Packet.make: identifier stack too deep";
  {
    stack;
    payload = payload_of_string payload;
    refresh;
    match_required;
    sender;
    prev_trigger = None;
    ttl;
    trace;
  }

(* Wire format: 48-byte common header, then body.  Every offset, flag
   bit and entry tag lives in {!Wire.Layout}; see the table there (and
   DESIGN.md §8).  Body: [32-byte prev trigger id if flagged], then the
   stack entries ([tag_sid | id32] or [tag_saddr | addr8]), then the
   payload. *)

open struct
  module L = Wire.Layout
  module Io = Wire.Io
end

let ( let* ) = Io.( let* )

let entry_wire_length = function
  | Sid _ -> L.sid_entry_bytes
  | Saddr _ -> L.saddr_entry_bytes

let stack_wire_length s =
  List.fold_left (fun acc e -> acc + entry_wire_length e) 0 s

let wire_length t =
  header_bytes
  + (match t.prev_trigger with Some _ -> Id.byte_length | None -> 0)
  + stack_wire_length t.stack
  + payload_length t

let put_entry buf = function
  | Sid id ->
      Buffer.add_char buf L.tag_sid;
      Buffer.add_string buf (Id.to_raw_string id)
  | Saddr a ->
      Buffer.add_char buf L.tag_saddr;
      Io.put_u64 buf (Int64.of_int a)

(* Explicit matches rather than [let*]: this runs once per stack entry
   of every forwarded packet, and a bind allocates a closure. *)
let read_entry r =
  match Io.u8 r "entry tag" with
  | Error e -> Error e
  | Ok tag when tag = Char.code L.tag_sid -> (
      match Io.take r Id.byte_length "entry id" with
      | Ok raw -> Ok (Sid (Id.of_raw_string raw))
      | Error e -> Error e)
  | Ok tag when tag = Char.code L.tag_saddr -> (
      match Io.u64 r "entry addr" with
      | Ok a -> Ok (Saddr (Int64.to_int a))
      | Error e -> Error e)
  | Ok _ -> Error "unknown entry tag"

(* [count] entries in wire order; [count] is at most [max_stack_depth]. *)
let rec read_entries r count =
  if count = 0 then Ok []
  else
    match read_entry r with
    | Error e -> Error e
    | Ok e -> (
        match read_entries r (count - 1) with
        | Ok rest -> Ok (e :: rest)
        | Error _ as err -> err)

let put_stack buf s =
  Io.put_u8 buf (List.length s);
  List.iter (put_entry buf) s

let read_stack ?(min_depth = 1) r =
  let* count = Io.u8 r "stack count" in
  if count < min_depth || count > max_stack_depth then Error "bad stack depth"
  else read_entries r count

let encode t =
  let buf = Buffer.create (wire_length t) in
  Buffer.add_char buf L.magic0;
  Buffer.add_char buf L.magic1;
  Buffer.add_char buf L.version;
  let flags =
    (if t.refresh then L.flag_refresh else 0)
    lor (if t.match_required then L.flag_match_required else 0)
    lor (match t.sender with Some _ -> L.flag_sender | None -> 0)
    lor match t.prev_trigger with Some _ -> L.flag_prev_trigger | None -> 0
  in
  Io.put_u8 buf flags;
  Io.put_u8 buf (List.length t.stack);
  Io.put_u8 buf (t.ttl land 0xff);
  Io.put_u16 buf 0;
  Io.put_u32 buf (payload_length t);
  Io.put_u64 buf (Int64.of_int (Option.value ~default:0 t.sender));
  Io.put_u64 buf
    (Int64.of_int (match t.prev_trigger with Some (a, _) -> a | None -> 0));
  Io.put_u64 buf (Int64.of_int t.trace);
  Buffer.add_string buf (String.make L.reserved_bytes '\x00');
  (match t.prev_trigger with
  | Some (_, id) -> Buffer.add_string buf (Id.to_raw_string id)
  | None -> ());
  List.iter (put_entry buf) t.stack;
  (match t.payload.repr with
  | P_owned s -> Buffer.add_string buf s
  | P_slice v -> Io.add_view buf v);
  Buffer.contents buf

(* Shared by [decode] and [decoded_length]: validate the fixed header
   once, in place.  On [Ok ()] every header field may be read straight
   from its [Wire.Layout] offset; the error strings are those of the
   field-by-field reader this replaced. *)
let check_header s =
  if String.length s < header_bytes then Error "truncated header"
  else if s.[L.off_magic] <> L.magic0 || s.[L.off_magic + 1] <> L.magic1 then
    Error "bad magic"
  else if s.[L.off_version] <> L.version then Error "unknown version"
  else if Char.code s.[L.off_flags] >= L.first_kind then
    Error "not a data packet"
  else
    let count = Char.code s.[L.off_stack_count] in
    if count < 1 || count > max_stack_depth then Error "bad stack depth"
    else Ok ()

let u32_at s off =
  (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

let int_at s off = Int64.to_int (String.get_int64_be s off)

(* A reader positioned at the body, just past the 48-byte header (the
   reserved bytes are never read). *)
let body_reader s =
  let r = Io.reader s in
  ignore (Io.skip r header_bytes "header");
  r

(* [decode] unwraps each body read with [get]; the first failure leaves
   through [Malformed] (allocated only then) instead of a chain of
   binds that allocates a closure per field. *)
exception Malformed of string

let get = function Ok v -> v | Error e -> raise_notrace (Malformed e)

let decode s =
  match check_header s with
  | Error e -> Error e
  | Ok () -> (
      let flags = Char.code s.[L.off_flags] in
      let r = body_reader s in
      try
        let prev_trigger =
          if flags land L.flag_prev_trigger = 0 then None
          else
            let raw = get (Io.take r Id.byte_length "prev trigger id") in
            Some (int_at s L.off_prev_addr, Id.of_raw_string raw)
        in
        let stack = get (read_entries r (Char.code s.[L.off_stack_count])) in
        let payload =
          get (Io.take_view r (u32_at s L.off_payload_len) "payload")
        in
        get (Io.expect_end r);
        Ok
          {
            stack;
            payload = { repr = P_slice payload };
            refresh = flags land L.flag_refresh <> 0;
            match_required = flags land L.flag_match_required <> 0;
            sender =
              (if flags land L.flag_sender <> 0 then Some (int_at s L.off_sender)
               else None);
            prev_trigger;
            ttl = Char.code s.[L.off_ttl];
            trace = int_at s L.off_trace;
          }
      with Malformed e -> Error e)

let decoded_length s =
  let* () = check_header s in
  let r = body_reader s in
  let* () =
    if Char.code s.[L.off_flags] land L.flag_prev_trigger <> 0 then
      Io.skip r Id.byte_length "prev trigger id"
    else Ok ()
  in
  let* _stack = read_entries r (Char.code s.[L.off_stack_count]) in
  let payload_len = u32_at s L.off_payload_len in
  let* () = Io.need r payload_len "payload" in
  Ok (Io.pos r + payload_len)
