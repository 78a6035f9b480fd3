type event =
  | Partition of int list
  | Heal
  | Crash of int
  | Restart of int
  | Gray of { from_site : int; to_site : int }
  | Gray_heal of { from_site : int; to_site : int }
  | Burst_loss of { p_enter : float; p_exit : float; loss_bad : float }
  | Burst_end
  | Loss of float
  | Jitter of float
  | Latency_spike of float
  | Duplicate of float

type schedule = (float * event) list

let pp_event ppf = function
  | Partition sites ->
      Format.fprintf ppf "partition {%s}"
        (String.concat "," (List.map string_of_int sites))
  | Heal -> Format.fprintf ppf "heal"
  | Crash i -> Format.fprintf ppf "crash %d" i
  | Restart i -> Format.fprintf ppf "restart %d" i
  | Gray { from_site; to_site } ->
      Format.fprintf ppf "gray %d->%d" from_site to_site
  | Gray_heal { from_site; to_site } ->
      Format.fprintf ppf "gray-heal %d->%d" from_site to_site
  | Burst_loss { p_enter; p_exit; loss_bad } ->
      Format.fprintf ppf "burst-loss p_enter=%g p_exit=%g loss_bad=%g" p_enter
        p_exit loss_bad
  | Burst_end -> Format.fprintf ppf "burst-end"
  | Loss p -> Format.fprintf ppf "loss %g" p
  | Jitter ms -> Format.fprintf ppf "jitter %gms" ms
  | Latency_spike ms -> Format.fprintf ppf "latency-spike %gms" ms
  | Duplicate p -> Format.fprintf ppf "duplicate %g" p

type driver = event -> unit

let null_driver (_ : event) = ()

let net_driver ?(crash = fun _ -> ()) ?(restart = fun _ -> ()) net event =
  match event with
  | Partition sites -> ignore (Net.partition net sites)
  | Heal -> Net.heal_all net
  | Crash i -> crash i
  | Restart i -> restart i
  | Gray { from_site; to_site } ->
      Net.set_link_down net ~src_site:from_site ~dst_site:to_site
  | Gray_heal { from_site; to_site } ->
      Net.set_link_up net ~src_site:from_site ~dst_site:to_site
  | Burst_loss { p_enter; p_exit; loss_bad } ->
      Net.set_burst_loss net ~loss_bad ~p_enter ~p_exit ()
  | Burst_end -> Net.clear_burst_loss net
  | Loss p -> Net.set_loss_rate net p
  | Jitter ms -> Net.set_jitter net ms
  | Latency_spike ms -> Net.set_extra_latency net ms
  | Duplicate p -> Net.set_duplicate_rate net p

let sorted schedule =
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) schedule

let install engine driver schedule =
  List.iter
    (fun (time, event) ->
      if time < 0. then invalid_arg "Faults.install: negative event time";
      Engine.schedule engine ~delay:time (fun () -> driver event))
    (sorted schedule)

let churn rng ~victims ~start ~spacing ~downtime =
  if spacing < 0. then invalid_arg "Faults.churn: negative spacing";
  if downtime < 0. then invalid_arg "Faults.churn: negative downtime";
  let order = Array.of_list victims in
  Rng.shuffle rng order;
  let events = ref [] in
  Array.iteri
    (fun i victim ->
      let t_crash = start +. (float_of_int i *. spacing) in
      events := (t_crash +. downtime, Restart victim) :: (t_crash, Crash victim)
                :: !events)
    order;
  sorted !events
