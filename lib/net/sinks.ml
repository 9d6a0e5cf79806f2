open Abe_sim

let metrics registry ~links : _ Network.observer =
  (* Handles are resolved once: the fold must not pay a registry name
     lookup per event. *)
  let sent = Metrics.counter registry "net/sent"
  and delivered = Metrics.counter registry "net/delivered"
  and lost = Metrics.counter registry "net/lost"
  and crashed_drops = Metrics.counter registry "net/crashed_drops"
  and link_drops = Metrics.counter registry "net/link_drops"
  and ticks = Metrics.counter registry "net/ticks"
  and latency = Metrics.histogram registry "net/latency"
  and link_latency =
    Array.init links (fun i ->
        Metrics.histogram registry (Printf.sprintf "net/link/%04d/latency" i))
  and in_flight_h = Metrics.histogram registry "net/in_flight" in
  let transition counter in_flight =
    Metrics.incr counter;
    Metrics.observe in_flight_h (float_of_int in_flight)
  in
  fun ~time:_ ~stats:_ ~in_flight -> function
    | Network.Send _ -> transition sent in_flight
    | Deliver _ -> transition delivered in_flight
    | Loss _ -> transition lost in_flight
    | Crash_drop _ -> transition crashed_drops in_flight
    | Link_drop _ -> transition link_drops in_flight
    | Arrive { link; latency = l; _ } ->
      Metrics.observe latency l;
      Metrics.observe link_latency.(link.Topology.id) l
    | Tick _ -> Metrics.incr ticks
    | Crash _ | Revive _ | Link_down _ | Link_up _ -> ()

let trace tr ~pp : _ Network.observer =
 fun ~time ~stats:_ ~in_flight:_ -> function
  | Network.Send { link; msg; _ } ->
    Trace.recordf tr ~time ~kind:"send" ~source:(Trace.Node link.Topology.src)
      "%a" pp msg
  | Deliver { dst; msg; _ } ->
    Trace.recordf tr ~time ~kind:"recv" ~source:(Trace.Node dst) "%a" pp msg
  | Loss { link; msg; _ } ->
    Trace.recordf tr ~time ~kind:"loss" ~source:(Trace.Link link.Topology.id)
      "%a" pp msg
  | Link_drop { link; msg; _ } ->
    Trace.recordf tr ~time ~kind:"link-drop"
      ~source:(Trace.Link link.Topology.id) "%a" pp msg
  | Arrive _ | Crash_drop _ | Tick _ | Crash _ | Revive _ | Link_down _
  | Link_up _ -> ()

let compose observers =
  match List.filter_map Fun.id observers with
  | [] -> None
  | f :: rest ->
    Some
      (List.fold_left
         (fun (f : _ Network.observer) g ~time ~stats ~in_flight ev ->
            f ~time ~stats ~in_flight ev;
            g ~time ~stats ~in_flight ev)
         f rest)
