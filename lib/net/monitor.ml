(* Which invariants apply depends on how dynamic the network is allowed to
   be: a static run must never see a topology event at all, while a churn
   run only keeps the accounting invariants (the topology is expected to
   disconnect and reconnect freely). *)
type dynamic_class =
  | Static
  | Dynamic
  | Full_connectivity
  | Rooted of int

type t = {
  oracle : Abe_sim.Oracle.t;
  fifo : bool;
  clock : Clock.spec option;
  dynamic : dynamic_class;
  topology : Topology.t option;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped : int;
  mutable link_dropped : int;
  mutable ticks : int;
  last_delivered_seq : int array;        (* by link id; -1 = none yet *)
  last_tick : (float * float) option array;
      (* by node id: (real, local) of the last processed tick *)
  link_live : bool array;                (* by link id, from observed events *)
  node_crashed : bool array;             (* by node id, from observed events *)
}

let create ~oracle ?clock ?(fifo = false) ?(dynamic = Static) ?topology ~nodes
    ~links () =
  (match dynamic, topology with
   | (Full_connectivity | Rooted _), None ->
     invalid_arg "Monitor.create: connectivity classes need ?topology"
   | Rooted root, Some _ when root < 0 || root >= nodes ->
     invalid_arg "Monitor.create: Rooted root out of range"
   | _ -> ());
  { oracle;
    fifo;
    clock;
    dynamic;
    topology;
    sent = 0;
    delivered = 0;
    lost = 0;
    dropped = 0;
    link_dropped = 0;
    ticks = 0;
    last_delivered_seq = Array.make (max links 1) (-1);
    last_tick = Array.make (max nodes 1) None;
    link_live = Array.make (max links 1) true;
    node_crashed = Array.make (max nodes 1) false }

(* Tolerance for the tick-rate check: rates between tick completions are
   exact for linear clocks, so only float rounding needs headroom. *)
let rate_eps = 1e-9

let link_subject (link : Topology.link) =
  Printf.sprintf "link %d (%d->%d)" link.Topology.id link.Topology.src
    link.Topology.dst

let check_conservation t ~time ~(stats : Network.stats) ~in_flight =
  if
    stats.sent
    <> stats.delivered + stats.lost + stats.crashed_drops + stats.link_drops
       + in_flight
  then
    Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"conservation"
      ~subject:"network"
      "sent=%d <> delivered=%d + lost=%d + crashed_drops=%d + link_drops=%d \
       + in_flight=%d"
      stats.sent stats.delivered stats.lost stats.crashed_drops
      stats.link_drops in_flight;
  (* Cross-check the network's accounting against the monitor's independent
     event counts: a missed or double-counted event shows up here even when
     the network's own equation still balances. *)
  if
    stats.sent <> t.sent || stats.delivered <> t.delivered
    || stats.lost <> t.lost || stats.crashed_drops <> t.dropped
    || stats.link_drops <> t.link_dropped
  then
    Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"accounting"
      ~subject:"network"
      "stats (%d,%d,%d,%d,%d) disagree with observed events (%d,%d,%d,%d,%d)"
      stats.sent stats.delivered stats.lost stats.crashed_drops
      stats.link_drops t.sent t.delivered t.lost t.dropped t.link_dropped;
  let expected_inflight =
    t.sent - t.delivered - t.lost - t.dropped - t.link_dropped
  in
  if in_flight <> expected_inflight then
    Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"accounting"
      ~subject:"network" "in_flight=%d but observed events imply %d" in_flight
      expected_inflight

(* Reachability over the {e live} subgraph — live links, non-crashed
   nodes — as reconstructed from observed events.  Walked only at topology
   changes, which are rare; O(nodes + links) per walk. *)
let live_reach t topo ~root ~forward =
  let n = Topology.node_count topo in
  let seen = Array.make n false in
  let stack = ref [ root ] in
  seen.(root) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      let links =
        if forward then Topology.out_links topo u else Topology.in_links topo u
      in
      Array.iter
        (fun (l : Topology.link) ->
           let id = l.Topology.id in
           if id >= 0 && id < Array.length t.link_live && t.link_live.(id)
           then begin
             let v = if forward then l.Topology.dst else l.Topology.src in
             if (not t.node_crashed.(v)) && not seen.(v) then begin
               seen.(v) <- true;
               stack := v :: !stack
             end
           end)
        links
  done;
  seen

let live_nodes_unreached t seen =
  let missing = ref [] in
  Array.iteri
    (fun v crashed -> if (not crashed) && not seen.(v) then missing := v :: !missing)
    t.node_crashed;
  List.rev !missing

let check_connectivity t ~time =
  match t.dynamic, t.topology with
  | (Static | Dynamic), _ | _, None -> ()
  | Full_connectivity, Some topo ->
    (* The live subgraph must stay strongly connected: every live node
       reaches — and is reached by — every other live node. *)
    let root = ref (-1) in
    Array.iteri
      (fun v crashed -> if !root < 0 && not crashed then root := v)
      t.node_crashed;
    if !root >= 0 then begin
      let fwd = live_reach t topo ~root:!root ~forward:true in
      let bwd = live_reach t topo ~root:!root ~forward:false in
      let both = Array.map2 ( && ) fwd bwd in
      match live_nodes_unreached t both with
      | [] -> ()
      | missing ->
        Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"connectivity"
          ~subject:"network"
          "live subgraph not strongly connected: node(s) %s cut off from \
           node %d"
          (String.concat "," (List.map string_of_int missing))
          !root
    end
  | Rooted root, Some topo ->
    (* Weaker guarantee: a spanning tree rooted at [root] must survive —
       every live node stays reachable {e from} the root. *)
    if t.node_crashed.(root) then
      Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"connectivity"
        ~subject:"network" "spanning-tree root %d crashed" root
    else begin
      let fwd = live_reach t topo ~root ~forward:true in
      match live_nodes_unreached t fwd with
      | [] -> ()
      | missing ->
        Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"connectivity"
          ~subject:"network"
          "node(s) %s no longer reachable from spanning-tree root %d"
          (String.concat "," (List.map string_of_int missing))
          root
    end

let static_violation t ~time what =
  if t.dynamic = Static then
    Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"dynamic-class"
      ~subject:"network" "%s event in a Static-class network" what

let check_event t ~time (ev : _ Network.event) =
  match ev with
  | Send _ -> t.sent <- t.sent + 1
  | Arrive _ -> ()
  | Loss _ -> t.lost <- t.lost + 1
  | Crash_drop _ -> t.dropped <- t.dropped + 1
  | Link_drop _ ->
    t.link_dropped <- t.link_dropped + 1;
    static_violation t ~time "Link_drop"
  | Crash { node } ->
    if node >= 0 && node < Array.length t.node_crashed then
      t.node_crashed.(node) <- true;
    check_connectivity t ~time
  | Revive { node } ->
    static_violation t ~time "Revive";
    if node >= 0 && node < Array.length t.node_crashed then
      t.node_crashed.(node) <- false;
    check_connectivity t ~time
  | Link_down { link } ->
    static_violation t ~time "Link_down";
    let id = link.Topology.id in
    if id >= 0 && id < Array.length t.link_live then t.link_live.(id) <- false;
    check_connectivity t ~time
  | Link_up { link } ->
    static_violation t ~time "Link_up";
    let id = link.Topology.id in
    if id >= 0 && id < Array.length t.link_live then t.link_live.(id) <- true;
    check_connectivity t ~time
  | Deliver { link; seq; _ } ->
    t.delivered <- t.delivered + 1;
    let id = link.Topology.id in
    if t.fifo && id >= 0 && id < Array.length t.last_delivered_seq then begin
      if seq <= t.last_delivered_seq.(id) then
        Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"fifo"
          ~subject:(link_subject link)
          "delivered seq %d after seq %d" seq t.last_delivered_seq.(id);
      t.last_delivered_seq.(id) <- seq
    end
  | Tick { node; local_time } ->
    t.ticks <- t.ticks + 1;
    if node >= 0 && node < Array.length t.last_tick then begin
      (match t.last_tick.(node) with
       | None -> ()
       | Some (prev_real, prev_local) ->
         let subject = Printf.sprintf "node %d" node in
         if local_time <= prev_local then
           Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"clock-monotone"
             ~subject "local clock went from %.6f to %.6f" prev_local
             local_time;
         (match t.clock with
          | None -> ()
          | Some spec ->
            (* Ticks are processed at completion instants, but the clock is
               linear, so the observed rate between two completions equals
               the true rate and must respect Definition 1.2.  This holds
               across a crash-and-rejoin gap too: the clock is a pure
               function of real time and keeps running while the node is
               down. *)
            if time > prev_real then begin
              let rate = (local_time -. prev_local) /. (time -. prev_real) in
              if
                rate < spec.Clock.s_low *. (1. -. rate_eps)
                || rate > spec.Clock.s_high *. (1. +. rate_eps)
              then
                Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"clock-drift"
                  ~subject "observed rate %.9f outside [%g, %g]" rate
                  spec.Clock.s_low spec.Clock.s_high
            end));
      t.last_tick.(node) <- Some (time, local_time)
    end

let observer t : _ Network.observer =
 fun ~time ~stats ~in_flight ev ->
  check_event t ~time ev;
  check_conservation t ~time ~stats ~in_flight

let check_quiescence t ~time ~(outcome : Abe_sim.Engine.outcome) ~in_flight =
  match outcome with
  | Drained ->
    if in_flight <> 0 then
      Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"quiescence"
        ~subject:"network"
        "event queue drained with %d message(s) still in flight" in_flight
  | Stopped | Hit_time_limit | Hit_event_limit | Hit_wall_deadline ->
    (* The run was cut short; messages may legitimately be in flight. *)
    ()

let oracle t = t.oracle
