type config = {
  refresh_period : float;
  cache_ttl : float;
  ack_grace : float;
}

let default_config =
  { refresh_period = 30_000.; cache_ttl = 60_000.; ack_grace = 90_000. }

type binding = {
  mutable trigger : Trigger.t;
  mutable token : string option;  (* challenge response, once earned *)
  mutable last_ack : float;
  mutable span : Obs.Span.open_span;
      (* the in-flight insert/refresh round-trip; closed Ok by Insert_ack,
         or Timeout by the next refresh round if the ack never came *)
}

type cache_entry = { server : Packet.addr; mutable expires : float }

type t = {
  engine : Sim.Engine.t;
  net : Message.t Net.t;
  rng : Rng.t;
  cfg : config;
  mutable addr : Packet.addr;
  mutable site : int;
  gateways : Packet.addr array;
  mutable gateway_index : int;
  mutable bindings : binding list;
  cache : (string, cache_entry) Hashtbl.t; (* k-bit prefix -> server *)
  mutable receive : stack:Packet.stack -> payload:string -> unit;
  mutable refresher : Sim.Engine.timer option;
  tracer : Obs.Trace.t;
  spans : Obs.Span.t;
  first_packet : (string, Obs.Span.open_span) Hashtbl.t;
      (* prefix -> span covering "first packet to an uncached prefix":
         opened on the gateway detour, closed when the responsible
         server's address lands in the cache.  Links the control-plane
         work to the provoking packet's data-plane trace id. *)
}

let now t = Sim.Engine.now t.engine
let addr t = t.addr
let site t = t.site
let engine t = t.engine
let gateway t = t.gateways.(t.gateway_index mod Array.length t.gateways)

let on_receive t f = t.receive <- f

let prefix_key id = String.sub (Id.to_raw_string id) 0 (Id.prefix_bits / 8)

let cached_server_for t id =
  match Hashtbl.find_opt t.cache (prefix_key id) with
  | Some e when e.expires > now t -> Some e.server
  | _ -> None

let cache_size t =
  Hashtbl.fold
    (fun _ e acc -> if e.expires > now t then acc + 1 else acc)
    t.cache 0

let new_private_id t = Id.random t.rng

let send_msg t dst msg = Net.send t.net ~src:t.addr ~dst msg

let insert_binding t b =
  (* Route the insert through the cached server when we know it, otherwise
     through the gateway. *)
  let dst =
    match cached_server_for t b.trigger.Trigger.id with
    | Some s -> s
    | None -> gateway t
  in
  send_msg t dst (Message.Insert { trigger = b.trigger; token = b.token })

let rotate_gateway t b =
  t.gateway_index <- (t.gateway_index + 1) mod Array.length t.gateways;
  Hashtbl.remove t.cache (prefix_key b.trigger.Trigger.id)

let refresh_now t =
  let time = now t in
  List.iter
    (fun b ->
      (* Close out an unacknowledged previous round-trip before opening
         the next one (no-op if the ack already closed it). *)
      Obs.Span.finish t.spans ~status:Obs.Span.Timeout ~time b.span;
      let rotated = time -. b.last_ack > t.cfg.ack_grace in
      if rotated then rotate_gateway t b;
      b.span <- Obs.Span.start t.spans ~time "i3.trigger_refresh";
      if rotated then
        Obs.Span.annotate b.span ~time
          (Printf.sprintf "ack overdue; rotate to gateway addr=%d" (gateway t));
      insert_binding t b)
    t.bindings

let close_first_packet t prefix =
  let k = prefix_key prefix in
  match Hashtbl.find_opt t.first_packet k with
  | Some sp ->
      Hashtbl.remove t.first_packet k;
      Obs.Span.finish t.spans ~time:(now t) sp
  | None -> ()

let handle t ~src:_ (msg : Message.t) =
  match msg with
  | Message.Deliver { stack; payload; trace } ->
      (* The terminal event is recorded at the receiving host: a Deliver
         message lost in flight is then a net-level drop, not a
         delivery. *)
      Obs.Trace.record t.tracer trace ~time:(now t) ~site:t.site
        Obs.Trace.Deliver;
      t.receive ~stack ~payload
  | Message.Challenge { trigger; token } -> (
      (* Only answer challenges for triggers we actually requested: an
         attacker pointing a trigger at us produces a challenge we never
         asked for, which we ignore — that is the reflection defense. *)
      match
        List.find_opt (fun b -> Trigger.same_binding b.trigger trigger)
          t.bindings
      with
      | Some b ->
          b.token <- Some token;
          Obs.Span.annotate b.span ~time:(now t) "challenged; re-insert";
          insert_binding t b
      | None -> ())
  | Message.Insert_ack { trigger; server } -> (
      match
        List.find_opt (fun b -> Trigger.same_binding b.trigger trigger)
          t.bindings
      with
      | Some b ->
          b.last_ack <- now t;
          Obs.Span.finish t.spans ~time:(now t) b.span;
          Hashtbl.replace t.cache
            (prefix_key trigger.Trigger.id)
            { server; expires = now t +. t.cfg.cache_ttl };
          close_first_packet t trigger.Trigger.id
      | None -> ())
  | Message.Cache_info { prefix; server } ->
      Hashtbl.replace t.cache (prefix_key prefix)
        { server; expires = now t +. t.cfg.cache_ttl };
      close_first_packet t prefix
  | Message.Data _ | Message.Insert _ | Message.Remove _
  | Message.Cache_push _ | Message.Pushback _ | Message.Replica _
  | Message.Ping _ | Message.Pong _ | Message.Stats_request _
  | Message.Stats_response _ | Message.Chord _ ->
      (* Server-bound traffic; hosts ignore it. *)
      ()

let create ~engine ~net ~rng ~site ~gateways ?(config = default_config)
    ?(tracer = Obs.Trace.disabled) ?(spans = Obs.Span.disabled) () =
  if gateways = [] then invalid_arg "Host.create: need at least one gateway";
  let t =
    {
      engine;
      net;
      rng;
      cfg = config;
      addr = -1;
      site;
      gateways = Array.of_list gateways;
      gateway_index = 0;
      bindings = [];
      cache = Hashtbl.create 16;
      receive = (fun ~stack:_ ~payload:_ -> ());
      refresher = None;
      tracer;
      spans;
      first_packet = Hashtbl.create 8;
    }
  in
  t.addr <- Net.register net ~site (fun ~src msg -> handle t ~src msg);
  t.refresher <-
    Some
      (Sim.Engine.every engine
         ~phase:(Rng.float rng config.refresh_period)
         ~period:config.refresh_period
         (fun () -> refresh_now t));
  t

(* --- triggers --- *)

let add_binding t trigger =
  let b =
    { trigger; token = None; last_ack = now t; span = Obs.Span.null }
  in
  t.bindings <- b :: t.bindings;
  b.span <- Obs.Span.start t.spans ~time:(now t) "i3.trigger_insert";
  insert_binding t b

let insert_trigger t id = add_binding t (Trigger.to_host ~id ~owner:t.addr)

let insert_stack_trigger t id stack =
  add_binding t (Trigger.make ~id ~stack ~owner:t.addr)

let insert_trigger_with_backup t id =
  let backup = Id.antipode id in
  insert_trigger t id;
  insert_trigger t backup;
  backup

let remove_trigger t id =
  let mine, rest =
    List.partition (fun b -> Id.equal b.trigger.Trigger.id id) t.bindings
  in
  t.bindings <- rest;
  List.iter
    (fun b ->
      Obs.Span.finish t.spans ~status:(Obs.Span.Error "removed") ~time:(now t)
        b.span;
      let dst =
        match cached_server_for t id with Some s -> s | None -> gateway t
      in
      send_msg t dst (Message.Remove { trigger = b.trigger }))
    mine

let active_triggers t = List.map (fun b -> b.trigger) t.bindings

(* --- sending --- *)

let send_packet t (p : Packet.t) =
  (* Allocate a trace id at send time (unless the caller pre-traced the
     packet); every later layer just carries it. *)
  let p =
    if p.Packet.trace <> Obs.Trace.none then p
    else
      match Obs.Trace.start t.tracer with
      | id when id = Obs.Trace.none -> p
      | id -> { p with Packet.trace = id }
  in
  Obs.Trace.record t.tracer p.Packet.trace ~time:(now t) ~site:t.site
    Obs.Trace.Send;
  match p.Packet.stack with
  | Packet.Saddr a :: rest ->
      (* Head is already an IP address: plain IP delivery. *)
      send_msg t a
        (Message.Deliver
           { stack = rest; payload = Packet.payload_string p; trace = p.Packet.trace })
  | Packet.Sid head :: _ -> (
      match cached_server_for t head with
      | Some server -> send_msg t server (Message.Data p)
      | None ->
          (if Obs.Span.enabled t.spans then begin
             (* First packet toward an uncached prefix: span the gateway
                detour until [Cache_info] resolves the prefix, linked to
                this packet's data-plane trace. *)
             let k = prefix_key head in
             if not (Hashtbl.mem t.first_packet k) then begin
               let time = now t in
               let sp =
                 Obs.Span.start t.spans ~trace:p.Packet.trace ~time
                   "i3.first_packet"
               in
               Obs.Span.annotate sp ~time
                 (Printf.sprintf "uncached prefix; via gateway addr=%d"
                    (gateway t));
               Hashtbl.add t.first_packet k sp
             end
           end);
          send_msg t (gateway t)
            (Message.Data { p with Packet.refresh = true }))
  | [] -> invalid_arg "Host.send: empty stack"

let send_stack t ?(match_required = false) stack payload =
  send_packet t
    (Packet.make ~match_required ~sender:t.addr ~stack ~payload ())

let send t ?(refresh = false) id payload =
  let p = Packet.make ~refresh ~sender:t.addr ~stack:[ Packet.Sid id ] ~payload () in
  send_packet t p

let send_with_backup t ~primary ~backup payload =
  send_stack t [ Packet.Sid primary; Packet.Sid backup ] payload

(* --- mobility --- *)

let move t ~new_site =
  let old_addr = t.addr in
  let new_addr = Net.register t.net ~site:new_site (fun ~src msg -> handle t ~src msg) in
  Net.set_down t.net old_addr;
  t.addr <- new_addr;
  t.site <- new_site;
  (* Rewrite bindings that point at the old address and re-insert right
     away; stale server state expires on its own (Sec. II-D1). *)
  List.iter
    (fun b ->
      let stack =
        List.map
          (fun e ->
            match e with
            | Packet.Saddr a when a = old_addr -> Packet.Saddr new_addr
            | Packet.Saddr _ | Packet.Sid _ -> e)
          b.trigger.Trigger.stack
      in
      b.trigger <-
        Trigger.make ~id:b.trigger.Trigger.id ~stack ~owner:new_addr;
      b.token <- None;
      Obs.Span.finish t.spans ~status:(Obs.Span.Error "moved") ~time:(now t)
        b.span;
      b.span <- Obs.Span.start t.spans ~time:(now t) "i3.trigger_insert";
      Obs.Span.annotate b.span ~time:(now t) "re-insert after move";
      insert_binding t b)
    t.bindings
