(* Per-layer measurements of the traced run.  Each times public calls
   into one layer from outside; none edits the program. *)

open Abe_core

let now = Unix.gettimeofday

(* ------------------------------------------------------------ Election *)

(* Nanoseconds per [tick_decision] on an idle node. *)
let tick_ns ~seed =
  let rng = Abe_prob.Rng.create ~seed in
  let iters = 2_000_000 in
  let st = ref Election.initial in
  let t0 = now () in
  for _ = 1 to iters do
    let s, activated = Election.tick_decision ~a0:1e-3 ~rng !st in
    st := if activated then Election.initial else s
  done;
  ignore (Sys.opaque_identity !st);
  (now () -. t0) *. 1e9 /. float_of_int iters

(* Nanoseconds per [receive], over every phase and hop count. *)
let receive_ns ~n =
  let states =
    Election.
      [| { phase = Idle; d = 1 };
         { phase = Passive; d = 3 };
         { phase = Active; d = 2 };
         { phase = Idle; d = 5 } |]
  in
  let iters = 2_000_000 in
  let acc = ref 0 in
  let t0 = now () in
  for i = 1 to iters do
    let s, r = Election.receive ~n states.(i land 3) (1 + (i mod (n - 1))) in
    acc := !acc + s.d + (match r with Election.Forward h -> h | Purge -> 0 | Elected -> 1)
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1e9 /. float_of_int iters

(* ------------------------------------------------------------- Network *)

(* One token lapping a null-protocol ring with ticks off: the send and
   deliver path alone.  Events per second of [run]. *)
let token_events_per_s ~n ~delta ~events =
  let module N = Engine_core.Null_net in
  let topology = Abe_net.Topology.ring n in
  let delay = Abe_net.Delay_model.of_dist (Abe_prob.Dist.exponential ~mean:delta) in
  let config = { (N.default_config ~topology ~delay) with N.ticks_enabled = false } in
  let handlers =
    { N.init = (fun ctx -> if ctx.N.node = 0 then ctx.N.send 0 ());
      on_message = (fun ctx () () -> ctx.N.send 0 ());
      on_tick = (fun _ () -> ()) }
  in
  let net = N.create ~limit_events:events ~seed:1 config handlers in
  let t0 = now () in
  let (_ : Abe_sim.Engine.outcome) = N.run net in
  let dt = now () -. t0 in
  float_of_int (Abe_sim.Engine.executed_events (N.engine net)) /. dt

(* ---------------------------------------------------------------- Wire *)

(* Encode, then [feed]/[next], of stamped token frames. *)
let wire_ns () =
  let frame i =
    Abe_substrate.Wire.Send
      { link = 0;
        payload = Printf.sprintf "%016d" i;
        trace = Some { span = i; lamport = i; at = float_of_int i } }
  in
  let iters = 200_000 in
  let frames = Array.init 64 frame in
  let t0 = now () in
  let last = ref Bytes.empty in
  for i = 1 to iters do
    last := Abe_substrate.Wire.encode frames.(i land 63)
  done;
  let encode_ns = (now () -. t0) *. 1e9 /. float_of_int iters in
  let images = Array.map Abe_substrate.Wire.encode frames in
  let reader = Abe_substrate.Wire.reader () in
  let decoded = ref 0 in
  let t0 = now () in
  for i = 1 to iters do
    let b = images.(i land 63) in
    Abe_substrate.Wire.feed reader b (Bytes.length b);
    match Abe_substrate.Wire.next reader with
    | Ok (Some _) -> incr decoded
    | Ok None | Error _ -> failwith "wire probe: frame did not decode"
  done;
  let decode_ns = (now () -. t0) *. 1e9 /. float_of_int iters in
  ignore (Sys.opaque_identity !last);
  (encode_ns, decode_ns)

(* ------------------------------------------------------------- Driver *)

let busy (batches : Work.batch list) =
  List.fold_left
    (fun acc (b : Work.batch) ->
       List.fold_left (fun acc (s : Work.sim) -> acc +. s.wall) acc b.sims)
    0. batches

let walls (batches : Work.batch list) =
  List.fold_left (fun acc (b : Work.batch) -> acc +. b.wall) 0. batches

(* The driver and sink probes run the first [k] sweep batches of seed 0,
   whatever the workload's seed: fixed inputs, so their figures compare
   from run to run, and a fixed memory footprint (one long election under
   the causal recorder can take hundreds of MB). *)
let probe_batches ~smoke ~sinks ~parallel ~k =
  List.init k (fun b -> Work.sweep_batch ~smoke ~sinks ~parallel ~seed:0 ~batch:b)

(* On nproc domains and sequentially: busy time (summed task wall, timed
   inside each task), idle share of the domains, task inflation, and
   spawn latency. *)
let driver ~smoke ~k =
  let run parallel = probe_batches ~smoke ~sinks:Work.no_sinks ~parallel ~k in
  let par = run true in
  let seq = run false in
  let busy_par = busy par in
  let spawns =
    List.concat_map
      (fun (b : Work.batch) -> List.map (fun (called, first) -> (first -. called) *. 1e3) b.calls)
      par
  in
  [ ("driver.busy_s", busy_par);
    ("driver.idle_share",
     1. -. (busy_par /. (walls par *. float_of_int Work.nproc)));
    ("driver.task_inflation", busy_par /. busy seq);
    ("driver.spawn_ms", Pb_stats.median spawns) ]

(* -------------------------------------------------------------- Sinks *)

(* Each sink alone against none, sequentially; read-out and allocation
   with all of them.  Also returns the elections run with every sink, the
   oracle among them, so that their verdicts count as failures. *)
let sinks ~smoke ~k =
  let run sinks = probe_batches ~smoke ~sinks ~parallel:false ~k in
  let none = run Work.no_sinks in
  let base = walls none in
  let alone s = walls (run s) -. base in
  let all = run Work.all_sinks in
  let sum f batches =
    List.fold_left
      (fun acc (b : Work.batch) -> List.fold_left (fun acc s -> acc +. f s) acc b.sims)
      0. batches
  in
  let events = sum (fun s -> float_of_int s.Work.record.events) none in
  let no = Work.no_sinks in
  ( [ ("sink.check_s", alone { no with check = true });
      ("sink.metrics_s", alone { no with metrics = true });
      ("sink.causal_s", alone { no with causal = true });
      ("sink.trace_s", alone { no with trace = true });
      ("sink.readout_s",
       sum (fun s -> s.Work.readout) all
       +. List.fold_left (fun acc (b : Work.batch) -> acc +. b.merge_s) 0. all);
      ("sink.bytes_per_event",
       (sum (fun s -> s.Work.alloc) all -. sum (fun s -> s.Work.alloc) none) /. events) ],
    List.concat_map (fun (b : Work.batch) -> b.sims) all )

(* ----------------------------------------------------- Real substrate *)

let ms units = units *. Work.real_scale *. 1e3

(* [untraced] and [traced] (telemetry attached) ran the same seeds. *)
let real ~(untraced : Work.real list) ~(traced : Work.real list) ~(refs : Work.sim list) =
  let module Fid = Abe_substrate.Telemetry.Fidelity in
  let outcomes rs = List.filter_map (fun (r : Work.real) -> r.r_outcome) rs in
  let breakdowns =
    List.filter_map
      (fun (r : Work.real) -> Option.bind r.r_causal Abe_sim.Critpath.analyze)
      traced
  in
  let handler_units c =
    List.fold_left
      (fun acc sp ->
         match Abe_sim.Causal.shape sp with
         | Process_shape _ -> acc +. (Abe_sim.Causal.span_end sp -. Abe_sim.Causal.span_begin sp)
         | Transit_shape _ -> acc)
      0. (Abe_sim.Causal.spans c)
  in
  let crit f = Pb_stats.median (List.map (fun b -> ms (f b)) breakdowns) in
  let count p = float_of_int (List.length (List.filter Fun.id (List.map2 p untraced refs))) in
  (* Diverged: leader or message count differs from the simulator's, as
     when backend latency pushes a token past a tick. *)
  let same_execution (r : Work.real) (s : Work.sim) =
    match r.r_outcome with
    | Some o -> o.elected && o.leader = s.record.leader && o.messages = s.record.messages
    | None -> false
  in
  let leader_mismatch =
    count (fun (r : Work.real) (s : Work.sim) ->
        Option.map (fun (o : Abe_substrate.Elect_real.outcome) -> o.leader) r.r_outcome
        <> Some s.record.leader)
  in
  [ ("cluster.setup_p50_ms", Pb_stats.median (List.map (fun (r : Work.real) -> r.r_setup *. 1e3) untraced));
    ("cluster.excess_p50_ms",
     Pb_stats.median
       (List.map (fun (o : Abe_substrate.Elect_real.outcome) -> ms (Fid.worst_mean_excess o.fidelity))
          (outcomes untraced)));
    ("worker.handler_ms",
     Pb_stats.median
       (List.filter_map (fun (r : Work.real) -> Option.map (fun c -> ms (handler_units c)) r.r_causal) traced));
    ("critpath.link_ms", crit (fun b -> b.Abe_sim.Critpath.link));
    ("critpath.proc_ms", crit (fun b -> b.Abe_sim.Critpath.proc));
    ("critpath.idle_ms", crit (fun b -> b.Abe_sim.Critpath.idle));
    ("telemetry.overhead_ms",
     Pb_stats.median
       (List.map2 (fun (u : Work.real) (t : Work.real) -> (t.r_wall -. u.r_wall) *. 1e3) untraced traced));
    ("elect_real.leader_mismatch", leader_mismatch);
    ("elect_real.diverged", count (fun r s -> not (same_execution r s))) ]
