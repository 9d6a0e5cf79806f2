open Abe_net

(* The monitor is driven here with fabricated event streams — the point is
   to prove each check fires on a stream a correct network can never emit,
   and stays silent on a consistent one. *)

let stats () =
  { Network.sent = 0;
    delivered = 0;
    lost = 0;
    crashed_drops = 0;
    link_drops = 0;
    ticks = 0;
    sent_per_node = Array.make 2 0;
    delivered_per_node = Array.make 2 0 }

let link0 = { Topology.id = 0; src = 0; dst = 1 }

let monitor ?clock ?(fifo = false) ?dynamic ?topology ?(nodes = 2) ?(links = 2)
    () =
  let oracle = Abe_sim.Oracle.create () in
  ( Monitor.create ~oracle ?clock ~fifo ?dynamic ?topology ~nodes ~links (),
    oracle )

let invariants oracle =
  List.map
    (fun v -> v.Abe_sim.Oracle.invariant)
    (Abe_sim.Oracle.violations oracle)

(* Emit a consistent send+deliver pair through the observer. *)
let send_then_deliver obs stats ~seq ~t_send ~t_deliver =
  stats.Network.sent <- stats.Network.sent + 1;
  obs ~time:t_send ~stats ~in_flight:1
    (Network.Send { link = link0; seq; msg = () });
  stats.Network.delivered <- stats.Network.delivered + 1;
  obs ~time:t_deliver ~stats ~in_flight:0
    (Network.Deliver { link = link0; seq; dst = 1; msg = () })

let test_consistent_stream_clean () =
  let m, oracle = monitor ~fifo:true () in
  let obs = Monitor.observer m in
  let st = stats () in
  send_then_deliver obs st ~seq:0 ~t_send:0. ~t_deliver:1.;
  send_then_deliver obs st ~seq:1 ~t_send:1. ~t_deliver:2.;
  Monitor.check_quiescence m ~time:2. ~outcome:Abe_sim.Engine.Drained
    ~in_flight:0;
  if not (Abe_sim.Oracle.is_clean oracle) then
    Alcotest.failf "unexpected: %s" (Fmt.str "%a" Abe_sim.Oracle.pp oracle)

let test_conservation_violation () =
  let m, oracle = monitor () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 1;
  (* in_flight claims 0 while nothing was delivered/lost: the equation and
     the independent count both break. *)
  obs ~time:0. ~stats:st ~in_flight:0
    (Network.Send { link = link0; seq = 0; msg = () });
  Alcotest.(check bool) "conservation fired" true
    (List.mem "conservation" (invariants oracle))

let test_accounting_violation () =
  let m, oracle = monitor () in
  let obs = Monitor.observer m in
  let st = stats () in
  (* The network's stats claim a delivery the monitor never observed. *)
  st.Network.sent <- 2;
  st.Network.delivered <- 1;
  obs ~time:0. ~stats:st ~in_flight:1
    (Network.Send { link = link0; seq = 0; msg = () });
  Alcotest.(check bool) "accounting fired" true
    (List.mem "accounting" (invariants oracle))

let test_fifo_violation () =
  let m, oracle = monitor ~fifo:true () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 2;
  obs ~time:0. ~stats:st ~in_flight:2
    (Network.Send { link = link0; seq = 0; msg = () });
  obs ~time:0. ~stats:st ~in_flight:2
    (Network.Send { link = link0; seq = 1; msg = () });
  (* Deliver seq 1 before seq 0 on the same link: out of order. *)
  st.Network.delivered <- 1;
  obs ~time:1. ~stats:st ~in_flight:1
    (Network.Deliver { link = link0; seq = 1; dst = 1; msg = () });
  st.Network.delivered <- 2;
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Deliver { link = link0; seq = 0; dst = 1; msg = () });
  Alcotest.(check bool) "fifo fired" true (List.mem "fifo" (invariants oracle))

let test_fifo_ignored_when_disabled () =
  let m, oracle = monitor ~fifo:false () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 2;
  obs ~time:0. ~stats:st ~in_flight:2
    (Network.Send { link = link0; seq = 0; msg = () });
  obs ~time:0. ~stats:st ~in_flight:2
    (Network.Send { link = link0; seq = 1; msg = () });
  st.Network.delivered <- 1;
  obs ~time:1. ~stats:st ~in_flight:1
    (Network.Deliver { link = link0; seq = 1; dst = 1; msg = () });
  st.Network.delivered <- 2;
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Deliver { link = link0; seq = 0; dst = 1; msg = () });
  Alcotest.(check bool) "no fifo check on non-fifo links" false
    (List.mem "fifo" (invariants oracle))

let tick obs stats ~time ~node ~local_time =
  stats.Network.ticks <- stats.Network.ticks + 1;
  obs ~time ~stats ~in_flight:0 (Network.Tick { node; local_time })

let test_clock_monotonicity_violation () =
  let m, oracle = monitor ~clock:Clock.perfect () in
  let obs = Monitor.observer m in
  let st = stats () in
  tick obs st ~time:1. ~node:0 ~local_time:1.;
  tick obs st ~time:2. ~node:0 ~local_time:0.5;
  Alcotest.(check bool) "monotonicity fired" true
    (List.mem "clock-monotone" (invariants oracle))

let test_clock_drift_violation () =
  let spec = Clock.spec ~s_low:0.9 ~s_high:1.1 in
  let m, oracle = monitor ~clock:spec () in
  let obs = Monitor.observer m in
  let st = stats () in
  tick obs st ~time:1. ~node:0 ~local_time:1.;
  (* Local clock advanced 3 units in 1 real unit: rate 3 > s_high. *)
  tick obs st ~time:2. ~node:0 ~local_time:4.;
  Alcotest.(check bool) "drift fired" true
    (List.mem "clock-drift" (invariants oracle));
  (* A compliant pair on the other node stays silent. *)
  tick obs st ~time:1. ~node:1 ~local_time:1.;
  tick obs st ~time:2. ~node:1 ~local_time:2.05;
  let drift_count =
    List.length (List.filter (( = ) "clock-drift") (invariants oracle))
  in
  Alcotest.(check int) "exactly one drift violation" 1 drift_count

let test_quiescence_violation () =
  let m, oracle = monitor () in
  Monitor.check_quiescence m ~time:9. ~outcome:Abe_sim.Engine.Drained
    ~in_flight:3;
  Alcotest.(check (list string)) "quiescence fired" [ "quiescence" ]
    (invariants oracle);
  (* An interrupted run may legitimately leave messages in flight. *)
  let m2, oracle2 = monitor () in
  Monitor.check_quiescence m2 ~time:9. ~outcome:Abe_sim.Engine.Stopped
    ~in_flight:3;
  Alcotest.(check bool) "stopped run not flagged" true
    (Abe_sim.Oracle.is_clean oracle2)

(* Dynamic classes: a Static monitor must flag any topology event, a
   Dynamic monitor must accept a full churn sequence as long as the
   accounting stays consistent. *)

let test_static_flags_topology_events () =
  let m, oracle = monitor () in
  let obs = Monitor.observer m in
  let st = stats () in
  obs ~time:1. ~stats:st ~in_flight:0 (Network.Link_down { link = link0 });
  obs ~time:2. ~stats:st ~in_flight:0 (Network.Revive { node = 0 });
  Alcotest.(check int) "two dynamic-class violations" 2
    (List.length (List.filter (( = ) "dynamic-class") (invariants oracle)))

let test_dynamic_accepts_churn_stream () =
  let m, oracle = monitor ~dynamic:Monitor.Dynamic () in
  let obs = Monitor.observer m in
  let st = stats () in
  obs ~time:0.5 ~stats:st ~in_flight:0 (Network.Crash { node = 0 });
  st.Network.sent <- 1;
  obs ~time:1. ~stats:st ~in_flight:1
    (Network.Send { link = link0; seq = 0; msg = () });
  obs ~time:1.2 ~stats:st ~in_flight:1 (Network.Link_down { link = link0 });
  (* The link died with the message in flight: the drop is accounted, so
     conservation still balances at the observer call. *)
  st.Network.link_drops <- 1;
  obs ~time:1.5 ~stats:st ~in_flight:0
    (Network.Link_drop { link = link0; seq = 0; msg = () });
  obs ~time:2. ~stats:st ~in_flight:0 (Network.Link_up { link = link0 });
  obs ~time:2.5 ~stats:st ~in_flight:0 (Network.Revive { node = 0 });
  Monitor.check_quiescence m ~time:3. ~outcome:Abe_sim.Engine.Drained
    ~in_flight:0;
  if not (Abe_sim.Oracle.is_clean oracle) then
    Alcotest.failf "unexpected: %s" (Fmt.str "%a" Abe_sim.Oracle.pp oracle)

let test_link_drop_conservation_violation () =
  let m, oracle = monitor ~dynamic:Monitor.Dynamic () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 1;
  obs ~time:1. ~stats:st ~in_flight:1
    (Network.Send { link = link0; seq = 0; msg = () });
  (* Link drop claimed without updating the stats: both the equation and
     the independent count break. *)
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Link_drop { link = link0; seq = 0; msg = () });
  Alcotest.(check bool) "conservation fired" true
    (List.mem "conservation" (invariants oracle))

(* Connectivity oracles over a 3-ring (link i runs i -> i+1 mod 3). *)

let ring3 () = Topology.ring 3

let test_full_connectivity_violation () =
  let m, oracle =
    monitor ~dynamic:Monitor.Full_connectivity ~topology:(ring3 ()) ~nodes:3
      ~links:3 ()
  in
  let obs = Monitor.observer m in
  let st = stats () in
  obs ~time:1. ~stats:st ~in_flight:0
    (Network.Link_down { link = { Topology.id = 0; src = 0; dst = 1 } });
  Alcotest.(check bool) "connectivity fired" true
    (List.mem "connectivity" (invariants oracle))

let test_full_connectivity_restored_clean () =
  let m, oracle =
    monitor ~dynamic:Monitor.Full_connectivity ~topology:(ring3 ()) ~nodes:3
      ~links:3 ()
  in
  let obs = Monitor.observer m in
  let st = stats () in
  let l0 = { Topology.id = 0; src = 0; dst = 1 } in
  obs ~time:1. ~stats:st ~in_flight:0 (Network.Link_down { link = l0 });
  let before = List.length (invariants oracle) in
  (* Once the link is back every topology-change instant is connected
     again: no new violations after the restore. *)
  obs ~time:2. ~stats:st ~in_flight:0 (Network.Link_up { link = l0 });
  Alcotest.(check int) "no violation at restore" before
    (List.length (invariants oracle))

let test_rooted_connectivity () =
  let m, oracle =
    monitor ~dynamic:(Monitor.Rooted 0) ~topology:(ring3 ()) ~nodes:3 ~links:3
      ()
  in
  let obs = Monitor.observer m in
  let st = stats () in
  (* Losing the link back into the root keeps every node reachable *from*
     the root: the rooted (broadcast-tree) guarantee survives where full
     strong connectivity would not. *)
  obs ~time:1. ~stats:st ~in_flight:0
    (Network.Link_down { link = { Topology.id = 2; src = 2; dst = 0 } });
  Alcotest.(check bool) "rooted tolerates return-link loss" true
    (Abe_sim.Oracle.is_clean oracle);
  (* Losing an outbound tree link cuts nodes 1 and 2 off from the root. *)
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Link_down { link = { Topology.id = 0; src = 0; dst = 1 } });
  Alcotest.(check bool) "rooted cut detected" true
    (List.mem "connectivity" (invariants oracle))

let test_rooted_root_crash () =
  let m, oracle =
    monitor ~dynamic:(Monitor.Rooted 0) ~topology:(ring3 ()) ~nodes:3 ~links:3
      ()
  in
  let obs = Monitor.observer m in
  let st = stats () in
  obs ~time:1. ~stats:st ~in_flight:0 (Network.Crash { node = 0 });
  Alcotest.(check bool) "root crash flagged" true
    (List.mem "connectivity" (invariants oracle))

let test_connectivity_requires_topology () =
  let oracle = Abe_sim.Oracle.create () in
  Alcotest.check_raises "missing topology rejected"
    (Invalid_argument "Monitor.create: connectivity classes need ?topology")
    (fun () ->
       ignore
         (Monitor.create ~oracle ~dynamic:Monitor.Full_connectivity ~nodes:2
            ~links:2 ()))

let () =
  Alcotest.run "monitor"
    [ ( "monitor",
        [ Alcotest.test_case "consistent stream clean" `Quick
            test_consistent_stream_clean;
          Alcotest.test_case "conservation" `Quick test_conservation_violation;
          Alcotest.test_case "accounting" `Quick test_accounting_violation;
          Alcotest.test_case "fifo" `Quick test_fifo_violation;
          Alcotest.test_case "fifo disabled" `Quick
            test_fifo_ignored_when_disabled;
          Alcotest.test_case "clock monotonicity" `Quick
            test_clock_monotonicity_violation;
          Alcotest.test_case "clock drift" `Quick test_clock_drift_violation;
          Alcotest.test_case "quiescence" `Quick test_quiescence_violation ] );
      ( "dynamic classes",
        [ Alcotest.test_case "static flags topology events" `Quick
            test_static_flags_topology_events;
          Alcotest.test_case "dynamic accepts churn stream" `Quick
            test_dynamic_accepts_churn_stream;
          Alcotest.test_case "link-drop conservation" `Quick
            test_link_drop_conservation_violation;
          Alcotest.test_case "full connectivity cut" `Quick
            test_full_connectivity_violation;
          Alcotest.test_case "full connectivity restored" `Quick
            test_full_connectivity_restored_clean;
          Alcotest.test_case "rooted spanning tree" `Quick
            test_rooted_connectivity;
          Alcotest.test_case "rooted root crash" `Quick test_rooted_root_crash;
          Alcotest.test_case "connectivity needs topology" `Quick
            test_connectivity_requires_topology ] ) ]
