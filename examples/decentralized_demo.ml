(* The paper's prototype architecture end-to-end: i3 servers run the live
   Chord protocol and forward packets from their own, possibly stale,
   local view — there is no global membership oracle anywhere. Watch the
   ring grow one join at a time, partition responsibility, carry traffic,
   and heal around a failure. Run with:
   dune exec examples/decentralized_demo.exe *)

let () =
  let d = I3.Dynamic.create ~seed:2026 () in
  print_endline "growing a 12-server i3 ring through protocol joins...";
  (* One server per site: links between sites have latency, so a
     control message caught in the routing gap a failure leaves (no
     server owns the dead server's arc until the ring heals) circles
     the ring in virtual time instead of spinning at one instant. *)
  for site = 1 to 12 do
    ignore (I3.Dynamic.add_server d ~site ());
    I3.Dynamic.run_for d 3_000.
  done;
  I3.Dynamic.run_for d 120_000.;

  (* responsibility is partitioned with no central coordination *)
  let rng = Rng.create 1L in
  let single = ref 0 in
  for _ = 1 to 100 do
    if List.length (I3.Dynamic.owners_of d (Id.random rng)) = 1 then incr single
  done;
  Printf.printf "keys with exactly one responsible server: %d/100\n" !single;

  let alice = I3.Dynamic.new_host d () in
  let bob = I3.Dynamic.new_host d () in
  I3.Host.on_receive bob (fun ~stack:_ ~payload ->
      Printf.printf "bob received: %S\n" payload);
  let id = I3.Host.new_private_id bob in
  I3.Host.insert_trigger bob id;
  I3.Dynamic.run_for d 2_000.;
  I3.Host.send alice id "over a self-organized ring";
  I3.Dynamic.run_for d 2_000.;

  (* kill the server holding Bob's trigger; the ring notices via RPC
     suspicion, stabilization reroutes the arc, and Bob's next refresh
     re-installs the trigger on the successor *)
  (match I3.Dynamic.owners_of d id with
  | [ owner ] ->
      Printf.printf "killing the responsible server (%s)...\n"
        (Format.asprintf "%a" Id.pp (I3.Server.id owner));
      I3.Dynamic.kill_server d owner
  | _ -> print_endline "unexpected ownership");
  I3.Dynamic.run_for d 100_000.;
  Printf.printf "servers alive: %d; owners of bob's id now: %d\n"
    (List.length (I3.Dynamic.servers d))
    (List.length (I3.Dynamic.owners_of d id));
  I3.Host.send alice id "still reachable after the failure";
  I3.Dynamic.run_for d 3_000.
