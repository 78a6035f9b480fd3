(* The i3 end host over real UDP: a thin driver of I3.Host_engine, the
   same protocol core I3.Host runs in the simulator.  This module owns
   what the core cannot: the socket (optionally behind a Faulty
   decorator), a monotonic clock, the blocking [insert], the Ping/Pong
   probe, and the client.* counters it derives from the core's
   binding-lifecycle notices. *)

type config = I3.Host_engine.config = {
  refresh_period : float;
  cache_ttl : float;
}

let default_config = I3.Host_engine.default_config

type pong = { server : int; triggers : int; uptime_ms : float }

type t = {
  udp : Udp.t;
  faulty : Faulty.t option;
  rng : Rng.t;
  core : I3.Host_engine.t;
  mutable due : float;  (* the core's last Set_timer *)
  mutable awaiting : I3.Trigger.t option;  (* the blocking insert's binding *)
  mutable outcome : [ `Acked | `Gave_up ] option;
  mutable on_deliver : stack:I3.Packet.stack -> payload:string -> unit;
  pongs : (int, pong) Hashtbl.t;  (* nonce -> reply *)
  c_sends : Obs.Metrics.counter;
  c_retries : Obs.Metrics.counter;
  c_timeouts : Obs.Metrics.counter;
  c_gave_up : Obs.Metrics.counter;
  c_acks : Obs.Metrics.counter;
  c_refreshes : Obs.Metrics.counter;
  c_delivers : Obs.Metrics.counter;
  c_data : Obs.Metrics.counter;
  c_decode_errors : Obs.Metrics.counter;
}

(* Milliseconds on the monotonic clock: a wall-clock step must not shift
   every refresh deadline. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let local_addr t = Udp.local_addr t.udp
let on_deliver t f = t.on_deliver <- f
let triggers t = I3.Host_engine.triggers t.core

let raw_send t ~dst bytes =
  match t.faulty with
  | Some f -> Faulty.send f ~now:(clock ()) ~dst bytes
  | None -> Udp.send t.udp ~dst bytes

let settle t trigger outcome =
  match t.awaiting with
  | Some a when I3.Trigger.same_binding a trigger ->
      t.awaiting <- None;
      t.outcome <- Some outcome
  | _ -> ()

let apply t = function
  | I3.Host_engine.Send (dst, msg) ->
      (match msg with
      | I3.Message.Insert _ -> Obs.Metrics.incr t.c_sends
      | _ -> ());
      raw_send t ~dst (I3.Codec.encode msg)
  | Deliver { stack; payload; trace = _ } ->
      Obs.Metrics.incr t.c_delivers;
      t.on_deliver ~stack ~payload
  | Binding (trigger, Acked _) ->
      Obs.Metrics.incr t.c_acks;
      settle t trigger `Acked
  | Binding (trigger, Gave_up) ->
      Obs.Metrics.incr t.c_gave_up;
      settle t trigger `Gave_up
  | Binding (_, Refreshed _) -> Obs.Metrics.incr t.c_refreshes
  | Binding (_, Timed_out) -> Obs.Metrics.incr t.c_timeouts
  | Binding (_, Retried _) -> Obs.Metrics.incr t.c_retries
  | Binding (_, Rehomed _) -> ()
  | Set_timer at -> t.due <- at

let step t event =
  List.iter (apply t) (I3.Host_engine.step t.core ~now:(clock ()) event)

let tick t = if clock () >= t.due then step t Tick

let handle t ~src bytes =
  match I3.Codec.decode bytes with
  | Error _ -> Obs.Metrics.incr t.c_decode_errors
  | Ok (I3.Message.Pong { nonce; server; triggers; uptime_ms }) ->
      Hashtbl.replace t.pongs nonce { server; triggers; uptime_ms }
  | Ok frame -> step t (Frame { src; frame })

let create ?(metrics = Obs.Metrics.default) ?(config = default_config)
    ?(instance = "client") ?faulty ~rng ~gateways udp =
  let labels = [ ("instance", instance) ] in
  let c name = Obs.Metrics.counter metrics ~labels name in
  let t =
    {
      udp;
      faulty;
      rng;
      core =
        I3.Host_engine.create ~addr:(Udp.local_addr udp) ~gateways ~rng
          ~config ();
      due = Float.infinity;
      awaiting = None;
      outcome = None;
      on_deliver = (fun ~stack:_ ~payload:_ -> ());
      pongs = Hashtbl.create 8;
      c_sends = c "client.sends";
      c_retries = c "client.retries";
      c_timeouts = c "client.timeouts";
      c_gave_up = c "client.gave_up";
      c_acks = c "client.acks";
      c_refreshes = c "client.refreshes";
      c_delivers = c "client.delivers";
      c_data = c "client.data_sent";
      c_decode_errors =
        Obs.Metrics.counter metrics
          ~labels:(labels @ [ ("proto", "i3") ])
          "wire.decode_errors";
    }
  in
  Udp.set_handler udp (handle t);
  t

(* One blocking receive step: release due delayed datagrams, then wait
   for at most [timeout] seconds of socket traffic.  EINTR (a signal
   mid-select) counts as an empty wait. *)
let wait t ~timeout =
  (match t.faulty with
  | Some f -> ignore (Faulty.flush f ~now:(clock ()))
  | None -> ());
  match Udp.wait t.udp ~timeout with
  | handled -> handled
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let poll t =
  let now = clock () in
  (match t.faulty with Some f -> ignore (Faulty.flush f ~now) | None -> ());
  Udp.poll t.udp ~now;
  tick t

(* Wait until [until ()] or the ms deadline, in 20 ms slices that keep
   the delay queue draining and the core's timers firing. *)
let poll_until t ~deadline until =
  let rec go () =
    if until () then true
    else
      let left = deadline -. clock () in
      if left <= 0. then false
      else begin
        ignore (wait t ~timeout:(Float.min (left /. 1000.) 0.02));
        tick t;
        go ()
      end
  in
  go ()

let insert t trigger =
  t.awaiting <- Some trigger;
  t.outcome <- None;
  step t (Insert_trigger trigger);
  ignore (poll_until t ~deadline:Float.infinity (fun () -> t.outcome <> None));
  Option.get t.outcome

let remove t trigger = step t (Remove_trigger trigger)

let send_data t ?ttl ?(trace = 0) ~stack ~payload () =
  Obs.Metrics.incr t.c_data;
  step t (Send_packet (I3.Packet.make ?ttl ~trace ~stack ~payload ()))

let ping t ~dst ~timeout_ms =
  let nonce = Rng.bits62 t.rng land 0xff_ffff_ffff in
  raw_send t ~dst (I3.Codec.encode (I3.Message.Ping { nonce }));
  let got () = Hashtbl.mem t.pongs nonce in
  if poll_until t ~deadline:(clock () +. timeout_ms) got then begin
    let p = Hashtbl.find t.pongs nonce in
    Hashtbl.remove t.pongs nonce;
    Some p
  end
  else None
