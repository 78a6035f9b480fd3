(* A fleet of i3 servers in simulation.  Every server is an [Engine.t]
   (an i3 server fused with a live Chord node) behind one simulated
   port, exactly as [bin/i3d] runs one engine behind one UDP socket;
   this module only spends the engines' effects against the simulated
   network and manages the fleet: join, kill, restart. *)

type member = {
  addr : Packet.addr;
  site : int;
  id : Id.t;
  mutable engine : Engine.t;  (* replaced by a fresh one on restart *)
  mutable alive : bool;
  mutable wakeup : float;
      (* the earliest [Tick] armed on the simulator; [infinity] if none *)
}

type t = {
  sim : Sim.Engine.t;
  rng : Rng.t;
  net : Message.t Net.t;
  mutable members : member list;  (* newest first *)
  server_config : Server.config option;
  protocol_config : Chord.Protocol.config;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  spans : Obs.Span.t;
  substrate : Koorde.Substrate.spec option;
  mutable generation : int;  (* membership epoch: bumped on every change *)
  mutable koorde : (int * Koorde.Routing.t * member array) option;
}

let fast_protocol_config =
  {
    Chord.Protocol.default_config with
    Chord.Protocol.stabilize_period = 2_000.;
    fix_fingers_period = 1_000.;
    fingers_per_round = 64;
    rpc_timeout = 500.;
  }

let create ?(seed = 1) ?(uniform_latency_ms = 5.) ?server_config
    ?(protocol_config = fast_protocol_config)
    ?(metrics = Obs.Metrics.default) ?(tracer = Obs.Trace.disabled)
    ?(spans = Obs.Span.disabled) ?substrate () =
  let rng = Rng.of_int seed in
  let sim = Sim.Engine.create () in
  let latency a b = if a = b then 0. else uniform_latency_ms in
  let net = Net.create ~metrics sim ~rng:(Rng.split rng) ~latency () in
  Codec.harden ~metrics net;
  Telemetry.install_net_tracer ~tracer net;
  {
    sim;
    rng;
    net;
    members = [];
    server_config;
    protocol_config;
    metrics;
    tracer;
    spans;
    substrate;
    generation = 0;
    koorde = None;
  }

let engine t = t.sim
let tracer t = t.tracer
let metrics t = t.metrics
let spans t = t.spans
let ring_label _ = Chord.Protocol.detached_label
let run_for t d = Sim.Engine.run_for t.sim d
let now t = Sim.Engine.now t.sim
let live_members t = List.filter (fun m -> m.alive) t.members

(* --- spending effects --- *)

(* Step a live member's engine at the simulator's clock and spend what
   it returns: sends become datagrams on the simulated port, and
   [Set_timer] arms one simulator event that steps [Tick]. *)
let rec step t m event =
  if m.alive then
    List.iter (spend t m) (Engine.step m.engine ~now:(now t) event)

and spend t m = function
  | Engine.Send (dst, msg) -> Net.send t.net ~src:m.addr ~dst msg
  | Engine.Deliver { dst; stack; payload; trace } ->
      Net.send t.net ~src:m.addr ~dst (Message.Deliver { stack; payload; trace })
  | Engine.Set_timer due ->
      (* An earlier wakeup already armed re-arms this one when it
         fires; a wakeup superseded by an earlier one, or outlived by a
         kill, finds [m.wakeup] moved on and does nothing. *)
      if due < m.wakeup then begin
        m.wakeup <- due;
        Sim.Engine.schedule_at t.sim ~time:due (fun () ->
            if m.wakeup = due then begin
              m.wakeup <- infinity;
              step t m Engine.Tick
            end)
      end

(* --- Koorde oracle mode --- *)

(* With a Koorde substrate the fleet forwards along de Bruijn hops over
   the global live membership, an oracle no real server has.  Ownership,
   successor and predecessor stay with each engine's Chord node, which
   agrees with the Koorde ring once membership has converged; until
   then a packet may take an extra hop or be dropped and repaired by
   soft state, as with stale fingers.  The router is rebuilt only after
   the membership changed. *)
let koorde_router t ~degree =
  match t.koorde with
  | Some (g, router, ring) when g = t.generation -> (router, ring)
  | _ ->
      let ring =
        Array.of_list
          (List.sort (fun a b -> Id.compare a.id b.id) (live_members t))
      in
      let router =
        Koorde.Routing.create ~degree
          (Chord.Oracle.create (Array.map (fun m -> m.id) ring))
      in
      t.koorde <- Some (t.generation, router, ring);
      (router, ring)

let koorde_view t m ~degree =
  let own = Server.view (Engine.server m.engine) in
  let next_hop id =
    let router, ring = koorde_router t ~degree in
    match Chord.Oracle.index_of (Koorde.Routing.oracle router) m.id with
    | Some current ->
        Option.map
          (fun n -> ring.(n).addr)
          (Koorde.Routing.next_hop router ~current ~key:(Id.routing_key id))
    | None -> own.next_hop id
  in
  { own with Server.next_hop }

(* --- fleet lifecycle --- *)

(* One random live member to join through, as [i3d --join] names one
   contact; none bootstraps a fresh ring. *)
let join_contact t =
  match live_members t with
  | [] -> []
  | live -> [ (Rng.choose t.rng (Array.of_list live)).addr ]

let new_engine t ~addr ~site ~id ~join =
  Engine.create ~seed:(Rng.bits62 t.rng) ~addr ~id ~join ~site
    ?config:t.server_config ~chord_config:t.protocol_config
    ~metrics:t.metrics ~tracer:t.tracer ~spans:t.spans ~now:(now t) ()

(* Bring a member's (fresh) engine up: install the oracle view if
   asked for, then take the first step, which sends the join probe and
   arms the first wakeup. *)
let start t m =
  m.alive <- true;
  (match t.substrate with
  | Some (Koorde.Substrate.Koorde { degree }) ->
      Server.set_view (Engine.server m.engine) (koorde_view t m ~degree)
  | Some (Koorde.Substrate.Chord _) | None -> ());
  t.generation <- t.generation + 1;
  step t m Engine.Tick

let add_server t ?(site = 0) () =
  let join = join_contact t in
  let addr = Net.register t.net ~site (fun ~src:_ _ -> ()) in
  let id = Id.routing_key (Id.random t.rng) in
  let m =
    {
      addr;
      site;
      id;
      engine = new_engine t ~addr ~site ~id ~join;
      alive = false;
      wakeup = infinity;
    }
  in
  Net.set_handler t.net addr (fun ~src msg ->
      step t m (Engine.Frame { src; frame = msg }));
  t.members <- m :: t.members;
  start t m;
  Engine.server m.engine

let kill t m =
  if m.alive then begin
    m.alive <- false;
    m.wakeup <- infinity;
    Server.kill (Engine.server m.engine);
    Net.set_down t.net m.addr;
    t.generation <- t.generation + 1
  end

(* Fail-stop recovery, like a supervisor respawning i3d: a fresh engine
   at the same address and id, with empty soft state and ring state,
   joining through a live member. *)
let restart t m =
  if m.alive then invalid_arg "Dynamic.restart_server: server is alive";
  Net.set_up t.net m.addr;
  m.engine <-
    new_engine t ~addr:m.addr ~site:m.site ~id:m.id ~join:(join_contact t);
  start t m

let member_of t server =
  match List.find_opt (fun m -> m.addr = Server.addr server) t.members with
  | Some m -> m
  | None -> invalid_arg "Dynamic: unknown server"

let kill_server t server = kill t (member_of t server)
let restart_server t server = restart t (member_of t server)
let servers t = List.map (fun m -> Engine.server m.engine) (live_members t)

let owners_of t id =
  live_members t
  |> List.filter (fun m ->
         Chord.Protocol.owns (Engine.chord m.engine) (Id.routing_key id))
  |> List.map (fun m -> Engine.server m.engine)

let new_host t ?(site = 0) ?config ?(n_gateways = 3) () =
  let live = Array.of_list (List.map (fun m -> m.addr) (live_members t)) in
  if Array.length live = 0 then invalid_arg "Dynamic.new_host: no live servers";
  Rng.shuffle t.rng live;
  let gateways =
    Array.to_list (Array.sub live 0 (min n_gateways (Array.length live)))
  in
  Host.create ~engine:t.sim ~net:t.net ~rng:(Rng.split t.rng) ~site ~gateways
    ?config ~tracer:t.tracer ~spans:t.spans ()

let total_triggers t =
  List.fold_left
    (fun acc m ->
      acc + Trigger_table.size (Server.triggers (Engine.server m.engine)))
    0 (live_members t)

(* --- fault injection --- *)

let all_servers t = List.rev_map (fun m -> Engine.server m.engine) t.members

let nth_member t i =
  match List.nth_opt (List.rev t.members) i with
  | Some m -> m
  | None -> invalid_arg "Dynamic.nth_server: no such server index"

let nth_server t i = Engine.server (nth_member t i).engine

let fault_driver t =
  let crash i = kill t (nth_member t i)
  and restart i =
    let m = nth_member t i in
    if not m.alive then restart t m
  in
  Net.driver ~crash ~restart t.net

let inject t schedule = Faults.install t.sim (fault_driver t) schedule
let net_stats t = Net.stats t.net
