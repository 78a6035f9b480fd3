type config = Host_engine.config = { refresh_period : float; cache_ttl : float }

let default_config = Host_engine.default_config

type t = {
  sim : Sim.Engine.t;
  net : Message.t Net.t;
  rng : Rng.t;
  core : Host_engine.t;
  tracer : Obs.Trace.t;
  mutable site : int;
  mutable receive : stack:Packet.stack -> payload:string -> unit;
  mutable armed : float;  (* the pending wakeup, infinity if none *)
}

let now t = Sim.Engine.now t.sim
let addr t = Host_engine.addr t.core
let site t = t.site
let engine t = t.sim
let gateway t = Host_engine.gateway t.core
let on_receive t f = t.receive <- f
let cached_server_for t id = Host_engine.cached_server t.core ~now:(now t) id
let cache_size t = Host_engine.cache_size t.core ~now:(now t)
let new_private_id t = Id.random t.rng
let active_triggers t = Host_engine.triggers t.core

let rec step t event =
  List.iter (apply t) (Host_engine.step t.core ~now:(now t) event)

and apply t = function
  | Host_engine.Send (dst, msg) -> Net.send t.net ~src:(addr t) ~dst msg
  | Deliver { stack; payload; trace } ->
      (* The terminal event is recorded at the receiving host: a Deliver
         lost in flight is then a net-level drop, not a delivery. *)
      Obs.Trace.record t.tracer trace ~time:(now t) ~site:t.site
        Obs.Trace.Deliver;
      t.receive ~stack ~payload
  | Binding _ -> ()
  | Set_timer at ->
      (* One wakeup in flight: an earlier deadline re-arms, a later one
         waits for the armed wakeup, whose Tick re-arms from the core. *)
      if at < t.armed then begin
        t.armed <- at;
        Sim.Engine.schedule_at t.sim ~time:at (fun () ->
            if t.armed = at then begin
              t.armed <- Float.infinity;
              step t Tick
            end)
      end

let receive_frame t ~src frame = step t (Frame { src; frame })

let create ~engine ~net ~rng ~site ~gateways ?(config = default_config)
    ?(tracer = Obs.Trace.disabled) ?(spans = Obs.Span.disabled) () =
  let addr = Net.register net ~site (fun ~src:_ _ -> ()) in
  let t =
    {
      sim = engine;
      net;
      rng;
      core = Host_engine.create ~addr ~gateways ~rng ~config ~spans ();
      tracer;
      site;
      receive = (fun ~stack:_ ~payload:_ -> ());
      armed = Float.infinity;
    }
  in
  Net.set_handler net addr (receive_frame t);
  t

(* --- triggers --- *)

let insert_stack_trigger t id stack =
  step t (Insert_trigger (Trigger.make ~id ~stack ~owner:(addr t)))

let insert_trigger t id = insert_stack_trigger t id [ Packet.Saddr (addr t) ]

let insert_trigger_with_backup t id =
  let backup = Id.antipode id in
  insert_trigger t id;
  insert_trigger t backup;
  backup

let remove_trigger t id =
  List.iter
    (fun tr -> if Id.equal tr.Trigger.id id then step t (Remove_trigger tr))
    (active_triggers t)

let refresh_now t =
  List.iter (fun tr -> step t (Insert_trigger tr)) (active_triggers t)

(* --- sending --- *)

let send_packet t (p : Packet.t) =
  (* Allocate a trace id at send time (unless the caller pre-traced the
     packet); every later layer just carries it. *)
  let p =
    if p.trace <> Obs.Trace.none then p
    else
      match Obs.Trace.start t.tracer with
      | id when id = Obs.Trace.none -> p
      | id -> { p with trace = id }
  in
  Obs.Trace.record t.tracer p.trace ~time:(now t) ~site:t.site Obs.Trace.Send;
  step t (Send_packet p)

let send_stack t ?(match_required = false) stack payload =
  send_packet t
    (Packet.make ~match_required ~sender:(addr t) ~stack ~payload ())

let send t ?(refresh = false) id payload =
  send_packet t
    (Packet.make ~refresh ~sender:(addr t) ~stack:[ Packet.Sid id ] ~payload ())

let send_with_backup t ~primary ~backup payload =
  send_stack t [ Packet.Sid primary; Packet.Sid backup ] payload

(* --- mobility --- *)

let move t ~new_site =
  let old = addr t in
  let fresh = Net.register t.net ~site:new_site (receive_frame t) in
  Net.set_down t.net old;
  t.site <- new_site;
  step t (Move fresh)
