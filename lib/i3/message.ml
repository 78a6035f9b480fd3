type t =
  | Data of Packet.t
  | Insert of { trigger : Trigger.t; token : string option }
  | Remove of { trigger : Trigger.t }
  | Challenge of { trigger : Trigger.t; token : string }
  | Insert_ack of { trigger : Trigger.t; server : Packet.addr }
  | Cache_info of { prefix : Id.t; server : Packet.addr }
  | Cache_push of { triggers : (Trigger.t * float) list }
  | Pushback of { id : Id.t; dead : Id.t }
  | Replica of { trigger : Trigger.t; lifetime : float }
  | Deliver of { stack : Packet.stack; payload : string; trace : int }
  | Ping of { nonce : int }
  | Pong of {
      nonce : int;
      server : Packet.addr;
      triggers : int;
      uptime_ms : float;
    }
  | Stats_request of { nonce : int; prefix : string; drain : bool }
  | Stats_response of {
      nonce : int;
      server : Packet.addr;
      samples : Obs.Metrics.sample list;
      events : Obs.Trace.event list;
    }
  | Chord of Chord.Protocol.msg

(* [Data] packets need {!Packet.equal} (payloads compare by content);
   every other arm is plain immutable data where structural [=] is
   exactly right. *)
let equal a b =
  match (a, b) with
  | Data p, Data q -> Packet.equal p q
  | Data _, _ | _, Data _ -> false
  | a, b -> a = b

let pp ppf = function
  | Data p ->
      Format.fprintf ppf "data %a (%d B)" Packet.pp_stack p.Packet.stack
        (Packet.payload_length p)
  | Insert { trigger; token } ->
      Format.fprintf ppf "insert %a%s" Trigger.pp trigger
        (match token with Some _ -> " +token" | None -> "")
  | Remove { trigger } -> Format.fprintf ppf "remove %a" Trigger.pp trigger
  | Challenge { trigger; _ } ->
      Format.fprintf ppf "challenge for %a" Trigger.pp trigger
  | Insert_ack { trigger; server } ->
      Format.fprintf ppf "ack %a from %a" Trigger.pp trigger Net.pp_addr server
  | Cache_info { prefix; server } ->
      Format.fprintf ppf "cache-info %a -> %a" Id.pp prefix Net.pp_addr server
  | Cache_push { triggers } ->
      Format.fprintf ppf "cache-push (%d triggers)" (List.length triggers)
  | Pushback { id; dead } ->
      Format.fprintf ppf "pushback %a !-> %a" Id.pp id Id.pp dead
  | Replica { trigger; lifetime } ->
      Format.fprintf ppf "replica %a (%.0f ms)" Trigger.pp trigger lifetime
  | Deliver { stack; payload; trace = _ } ->
      Format.fprintf ppf "deliver %a (%d B)" Packet.pp_stack stack
        (String.length payload)
  | Ping { nonce } -> Format.fprintf ppf "ping #%d" nonce
  | Pong { nonce; server; triggers; uptime_ms } ->
      Format.fprintf ppf "pong #%d from %a (%d triggers, up %.0f ms)" nonce
        Net.pp_addr server triggers uptime_ms
  | Stats_request { nonce; prefix; drain } ->
      Format.fprintf ppf "stats-request #%d prefix=%S%s" nonce prefix
        (if drain then " +drain" else "")
  | Stats_response { nonce; server; samples; events } ->
      Format.fprintf ppf "stats-response #%d from %a (%d samples, %d events)"
        nonce Net.pp_addr server (List.length samples) (List.length events)
  | Chord m ->
      Format.fprintf ppf "chord %s"
        (match m with
        | Chord.Protocol.Lookup_step _ -> "lookup-step"
        | Lookup_reply _ -> "lookup-reply"
        | Get_state _ -> "get-state"
        | State _ -> "state"
        | Notify _ -> "notify")

(* The trace id carried by a message, if the message participates in
   per-packet tracing (data path only: control messages are untraced). *)
let trace_of = function
  | Data p -> if p.Packet.trace = 0 then None else Some p.Packet.trace
  | Deliver { trace; _ } -> if trace = 0 then None else Some trace
  | Insert _ | Remove _ | Challenge _ | Insert_ack _ | Cache_info _
  | Cache_push _ | Pushback _ | Replica _ | Ping _ | Pong _
  | Stats_request _ | Stats_response _ | Chord _ ->
      None
