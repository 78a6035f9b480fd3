type config = { refresh_period : float; cache_ttl : float }

let default_config =
  { refresh_period = Trigger.default_lifetime_ms /. 3.; cache_ttl = 60_000. }

let attempt_timeout_ms = 250.
let backoff_base_ms = 50.
let backoff_max_ms = 2_000.
let jitter = 0.2
let max_retry_gap_ms = attempt_timeout_ms +. (backoff_max_ms *. (1. +. jitter))
let rehome_after = 2
let round = 5

type event =
  | Frame of { src : Packet.addr; frame : Message.t }
  | Tick
  | Insert_trigger of Trigger.t
  | Remove_trigger of Trigger.t
  | Send_packet of Packet.t
  | Move of Packet.addr

type notice =
  | Acked of Packet.addr
  | Refreshed of Packet.addr
  | Timed_out
  | Retried of Packet.addr
  | Rehomed of Packet.addr
  | Gave_up

type effect =
  | Send of Packet.addr * Message.t
  | Deliver of { stack : Packet.stack; payload : string; trace : int }
  | Binding of Trigger.t * notice
  | Set_timer of float

type binding = {
  mutable trigger : Trigger.t;
  mutable token : string option;  (* challenge response, once earned *)
  mutable last_ack : float;  (* -inf until the (re)insert is acked *)
  mutable attempts : int;  (* unacked sends in the current round *)
  mutable awaiting : bool;  (* an insert is out: [due] is its deadline *)
  mutable due : float;  (* ack deadline, else when to send next *)
  mutable dst : Packet.addr;  (* where the latest insert went *)
  mutable span : Obs.Span.open_span;  (* the round, closed by its ack *)
}

type t = {
  cfg : config;
  rng : Rng.t;
  spans : Obs.Span.t;
  mutable addr : Packet.addr;
  gateways : Packet.addr array;
  mutable gw : int;
  mutable gw_misses : int;  (* consecutive misses at the current gateway *)
  mutable bindings : binding list;
  cache : (string, Packet.addr * float) Hashtbl.t;
      (* k-bit prefix -> (server, expiry) *)
  detours : (string, float * Obs.Span.open_span) Hashtbl.t;
      (* prefix -> (since, span) of a gateway detour awaiting Cache_info *)
  mutable now : float;
  mutable out : effect list;  (* this step's effects, newest first *)
}

let create ~addr ~gateways ~rng ?(config = default_config)
    ?(spans = Obs.Span.disabled) () =
  if gateways = [] then invalid_arg "Host_engine.create: need a gateway";
  {
    cfg = config;
    rng;
    spans;
    addr;
    gateways = Array.of_list gateways;
    gw = 0;
    gw_misses = 0;
    bindings = [];
    cache = Hashtbl.create 16;
    detours = Hashtbl.create 8;
    now = Float.neg_infinity;
    out = [];
  }

let addr t = t.addr
let gateway t = t.gateways.(t.gw)
let triggers t = List.map (fun b -> b.trigger) t.bindings
let prefix_key id = String.sub (Id.to_raw_string id) 0 (Id.prefix_bits / 8)

let cached_server t ~now id =
  match Hashtbl.find_opt t.cache (prefix_key id) with
  | Some (server, expires) when expires > now -> Some server
  | _ -> None

let cache_size t ~now =
  Hashtbl.fold (fun _ (_, e) n -> if e > now then n + 1 else n) t.cache 0

let route t id =
  match cached_server t ~now:t.now id with Some s -> s | None -> gateway t

let emit t e = t.out <- e :: t.out
let notify t b n = emit t (Binding (b.trigger, n))
let annotate t b msg = Obs.Span.annotate b.span ~time:t.now msg

let find t trigger =
  List.find_opt (fun b -> Trigger.same_binding b.trigger trigger) t.bindings

let learn t id server =
  let k = prefix_key id in
  Hashtbl.replace t.cache k (server, t.now +. t.cfg.cache_ttl);
  match Hashtbl.find_opt t.detours k with
  | Some (_, sp) ->
      (* The detour was answered: the gateway works. *)
      Hashtbl.remove t.detours k;
      t.gw_misses <- 0;
      Obs.Span.finish t.spans ~time:t.now sp
  | None -> ()

(* A miss at the current gateway: an unacked insert sent there, or a
   detour through it that drew no Cache_info.  A round of them in a row
   rotates to the next gateway. *)
let gateway_missed t span =
  t.gw_misses <- t.gw_misses + 1;
  if t.gw_misses >= round then begin
    t.gw_misses <- 0;
    t.gw <- (t.gw + 1) mod Array.length t.gateways;
    Obs.Span.annotate span ~time:t.now
      (Printf.sprintf "rotate to gateway addr=%d" (gateway t))
  end

let transmit t b =
  b.dst <- route t b.trigger.Trigger.id;
  b.awaiting <- true;
  b.due <- t.now +. attempt_timeout_ms;
  emit t
    (Send (b.dst, Message.Insert { trigger = b.trigger; token = b.token }))

(* Close the binding's open round as [why] and start a fresh insert,
   sent on this step's attend pass. *)
let restart t b why =
  Obs.Span.finish t.spans ~status:(Error why) ~time:t.now b.span;
  b.last_ack <- Float.neg_infinity;
  b.attempts <- 0;
  b.awaiting <- false;
  b.span <- Obs.Span.start t.spans ~time:t.now "i3.trigger_insert";
  b.due <- t.now

(* Backoff after the [n]th miss of a round (0-based): 50 ms doubling,
   capped at 2 s, uniform within ±20 %. *)
let backoff t n =
  let nominal =
    Float.min (backoff_base_ms *. (2. ** float_of_int n)) backoff_max_ms
  in
  Rng.float_in t.rng (nominal *. (1. -. jitter)) (nominal *. (1. +. jitter))

let miss t b =
  b.awaiting <- false;
  notify t b Timed_out;
  let id = b.trigger.Trigger.id in
  (if b.attempts >= rehome_after then
     match cached_server t ~now:t.now id with
     | Some s when s = b.dst ->
         Hashtbl.remove t.cache (prefix_key id);
         notify t b (Rehomed s);
         annotate t b (Printf.sprintf "server addr=%d silent; re-home" s)
     | _ -> ());
  if b.dst = gateway t then gateway_missed t b.span;
  if b.attempts = round && b.last_ack = Float.neg_infinity then
    notify t b Gave_up;
  b.due <- t.now +. backoff t (b.attempts - 1)

let attend t b =
  if b.awaiting then miss t b
  else begin
    let refresh = b.attempts = 0 && b.last_ack > Float.neg_infinity in
    if refresh then
      b.span <- Obs.Span.start t.spans ~time:t.now "i3.trigger_refresh";
    b.attempts <- b.attempts + 1;
    transmit t b;
    if refresh then notify t b (Refreshed b.dst)
    else if b.attempts > 1 then begin
      notify t b (Retried b.dst);
      annotate t b (Printf.sprintf "retry %d to addr=%d" b.attempts b.dst)
    end
  end

let on_frame t (frame : Message.t) =
  match frame with
  | Deliver { stack; payload; trace } ->
      emit t (Deliver { stack; payload; trace })
  | Insert_ack { trigger; server } -> (
      match find t trigger with
      | Some b ->
          b.last_ack <- t.now;
          b.attempts <- 0;
          b.awaiting <- false;
          if b.dst = gateway t then t.gw_misses <- 0;
          b.due <- t.now +. t.cfg.refresh_period;
          Obs.Span.finish t.spans ~time:t.now b.span;
          learn t trigger.Trigger.id server;
          notify t b (Acked server)
      | None -> ())
  | Challenge { trigger; token } -> (
      (* Only answer for bindings we asked for: a trigger an attacker
         pointed at us draws a challenge we ignore (Sec. IV-J3). *)
      match find t trigger with
      | Some b ->
          b.token <- Some token;
          annotate t b "challenged; re-insert";
          transmit t b
      | None -> ())
  | Cache_info { prefix; server } -> learn t prefix server
  | Data _ | Insert _ | Remove _ | Cache_push _ | Pushback _ | Replica _
  | Ping _ | Pong _ | Stats_request _ | Stats_response _ | Chord _ ->
      ()

(* A data packet is about to take the gateway toward an uncached prefix.
   The first opens the [i3.first_packet] span; a later one, when the
   previous detour went unanswered for an attempt timeout, is a miss at
   the gateway. *)
let detour t head trace =
  let k = prefix_key head in
  match Hashtbl.find_opt t.detours k with
  | Some (since, sp) ->
      if since +. attempt_timeout_ms <= t.now then begin
        Hashtbl.replace t.detours k (t.now, sp);
        gateway_missed t sp
      end
  | None ->
      let sp = Obs.Span.start t.spans ~trace ~time:t.now "i3.first_packet" in
      if Obs.Span.enabled t.spans then
        Obs.Span.annotate sp ~time:t.now
          (Printf.sprintf "uncached prefix; via gateway addr=%d" (gateway t));
      Hashtbl.add t.detours k (t.now, sp)

let send_packet t (p : Packet.t) =
  match p.stack with
  | Saddr a :: rest ->
      (* Head is already an address: plain IP delivery. *)
      let payload = Packet.payload_string p in
      let frame = Message.Deliver { stack = rest; payload; trace = p.trace } in
      emit t (Send (a, frame))
  | Sid head :: _ -> (
      match cached_server t ~now:t.now head with
      | Some server -> emit t (Send (server, Message.Data p))
      | None ->
          detour t head p.trace;
          let p = { p with refresh = true; sender = Some t.addr } in
          emit t (Send (gateway t, Message.Data p)))
  | [] -> invalid_arg "Host_engine: empty stack"

let dispatch t = function
  | Frame { frame; _ } -> on_frame t frame
  | Tick -> ()
  | Insert_trigger trigger ->
      let b =
        match find t trigger with
        | Some b -> b
        | None ->
            let b =
              {
                trigger;
                token = None;
                last_ack = Float.neg_infinity;
                attempts = 0;
                awaiting = false;
                due = t.now;
                dst = gateway t;
                span = Obs.Span.null;
              }
            in
            t.bindings <- b :: t.bindings;
            b
      in
      restart t b "re-inserted"
  | Remove_trigger trigger ->
      Option.iter
        (fun b ->
          Obs.Span.finish t.spans ~status:(Error "removed") ~time:t.now b.span;
          t.bindings <- List.filter (( != ) b) t.bindings)
        (find t trigger);
      emit t (Send (route t trigger.Trigger.id, Message.Remove { trigger }))
  | Send_packet p -> send_packet t p
  | Move addr ->
      let old = t.addr in
      t.addr <- addr;
      List.iter
        (fun b ->
          let stack =
            List.map
              (function
                | Packet.Saddr a when a = old -> Packet.Saddr addr | e -> e)
              b.trigger.Trigger.stack
          in
          b.trigger <- Trigger.make ~id:b.trigger.Trigger.id ~stack ~owner:addr;
          b.token <- None;
          restart t b "moved";
          annotate t b "re-insert after move")
        t.bindings

let step t ~now event =
  t.now <- Float.max t.now now;
  t.out <- [];
  dispatch t event;
  List.iter (fun b -> if b.due <= t.now then attend t b) t.bindings;
  let next = List.fold_left (fun d b -> Float.min d b.due) infinity t.bindings in
  List.rev (if t.bindings = [] then t.out else Set_timer next :: t.out)
