(* The two workloads.  Each is a closed loop of election batches driven
   from this process: the next batch starts when the previous one has
   returned.  Inputs are derived from the base seed alone, so a traced
   pass can replay exactly the batches an untraced pass ran. *)

open Abe_core

let nproc = Domain.recommended_domain_count ()

type kind = Sweep | Real_ring

let kinds = [ ("sweep", Sweep); ("real-ring", Real_ring) ]

(* Observation sinks attached to a simulated election. *)
type sinks = { check : bool; metrics : bool; causal : bool; trace : bool }

let no_sinks = { check = false; metrics = false; causal = false; trace = false }
let all_sinks = { check = true; metrics = true; causal = true; trace = true }

(* ----------------------------------------------------------- configs *)

(* E3/E4: a0 = 1/n^2, default delta. *)
let sweep_sizes ~smoke = if smoke then [ 8; 16 ] else [ 16; 32; 64; 128 ]
let per_size = 8
let sweep_config n = Runner.config ~n ~a0:(1. /. float_of_int (n * n)) ()

(* The [parity] CI setting: n = 8, a0 = 0.005, scale 0.002, threads. *)
let real_n = 8
let real_a0 = 0.005
let real_scale = 0.002
let real_delay = Abe_net.Delay_model.of_dist (Abe_prob.Dist.exponential ~mean:1.)

let real_sim_config =
  Runner.config ~n:real_n ~a0:real_a0 ~params:Params.default ~delay:real_delay ()

let real_config =
  Abe_substrate.Elect_real.config ~n:real_n ~a0:real_a0 ~params:Params.default
    ~delay:real_delay ~scale:real_scale ~spawn_mode:Abe_substrate.Cluster.Threads ()

(* Base for the seeds of batch [batch], group [group], of a run seeded
   [seed]; [Exp.seeds] spreads it into well-separated election seeds. *)
let base ~seed ~batch ~group = (seed * 1_000_003) + (batch * 1_009) + group

(* ------------------------------------------------------- one election *)

type sim = {
  n : int;
  seed : int;
  record : Pb_stats.record;
  ok : bool;  (* elected, exactly one leader, no oracle violation *)
  wall : float;  (* [Runner.run] wall, seconds *)
  engine : float;
  max_queue : int;
  alloc : float;  (* bytes this election allocated, read in its own domain *)
  readout : float;  (* sink read-out: critpath + JSONL export *)
  started : float;
  metrics : Abe_sim.Metrics.t option;
}

let run_sim ~(sinks : sinks) config ~n ~seed =
  (* [Gc.allocated_bytes] is domain-local in OCaml 5: read it here, in the
     domain that runs the election, never in the caller. *)
  let a0 = Gc.allocated_bytes () in
  let metrics = if sinks.metrics then Some (Abe_sim.Metrics.create ()) else None in
  let causal = if sinks.causal then Some (Abe_sim.Causal.create ()) else None in
  let trace =
    if sinks.trace then Some (Abe_sim.Trace.create ~enabled:true ()) else None
  in
  let t0 = Unix.gettimeofday () in
  let o =
    Spans.with_span "runner.run" (fun () ->
        Runner.run ?trace ?metrics ?causal ~check:sinks.check ~seed config)
  in
  let t1 = Unix.gettimeofday () in
  let wall = t1 -. t0 in
  (* Inside [Runner.run], the engine's own timer locates the loop; the
     rest is construction plus outcome assembly. *)
  Spans.derived "runner.setup" ~t0 ~t1:(t1 -. o.wall_time);
  Spans.derived "engine.loop" ~t0:(t1 -. o.wall_time) ~t1;
  let readout =
    if causal = None && trace = None then 0.
    else
      Spans.with_span "sink.readout" (fun () ->
          let r0 = Unix.gettimeofday () in
          Option.iter (fun c -> ignore (Sys.opaque_identity (Abe_sim.Critpath.analyze c))) causal;
          Option.iter (fun t -> ignore (Sys.opaque_identity (Abe_sim.Trace.to_jsonl t))) trace;
          Unix.gettimeofday () -. r0)
  in
  { n;
    seed;
    record = Pb_stats.of_outcome ~seed o;
    ok = o.elected && o.leader_count = 1 && o.violations = [];
    wall;
    engine = o.wall_time;
    max_queue = o.max_queue_depth;
    alloc = Gc.allocated_bytes () -. a0;
    readout;
    started = t0;
    metrics }

(* A [Runner.run] stopped after its first event: construction plus
   outcome assembly, the part of an election outside the engine loop. *)
let setup_probe config ~n ~seed =
  let config = { config with Runner.limit_events = 1 } in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let (_ : Runner.outcome) =
    Spans.with_span "runner.setup_probe" (fun () -> Runner.run ~seed config)
  in
  (Unix.gettimeofday () -. t0, (Gc.allocated_bytes () -. a0) /. float_of_int n)

(* One sample of the simulator's set-up time: the setup probe of every
   election of the canonical batch (batch 0 of seed 0), summed.  Fixed
   inputs, in this domain alone, so the figure follows neither the seed
   nor the other domain's load. *)
let sim_setup_sample ~smoke =
  let elections =
    List.concat_map
      (fun n ->
         List.map (fun seed -> (n, seed))
           (Abe_harness.Exp.seeds ~base:(base ~seed:0 ~batch:0 ~group:n) ~count:per_size))
      (sweep_sizes ~smoke)
  in
  fun () ->
    List.fold_left
      (fun acc (n, seed) -> acc +. fst (setup_probe (sweep_config n) ~n ~seed))
      0. elections

type real = {
  r_seed : int;
  r_ok : bool;  (* Ok outcome, elected, no file-descriptor growth *)
  r_outcome : Abe_substrate.Elect_real.outcome option;
  r_wall : float;
  r_setup : float;  (* wall minus scale x elected_at: spawn, drain, join *)
  r_causal : Abe_sim.Causal.t option;
}

let run_real ~telemetry ~seed =
  let fds = Abe_substrate.Cluster.open_fd_count () in
  let collector =
    if telemetry then Some (Abe_substrate.Telemetry.Collector.create ~n:real_n)
    else None
  in
  let t0 = Unix.gettimeofday () in
  let result =
    Spans.with_span "elect_real.run" (fun () ->
        Abe_substrate.Elect_real.run ?telemetry:collector ~seed real_config)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let fds_ok = Abe_substrate.Cluster.open_fd_count () = fds in
  match result with
  | Ok o ->
    let setup = wall -. (real_scale *. o.elected_at) in
    { r_seed = seed;
      r_ok = o.elected && fds_ok;
      r_outcome = Some o;
      r_wall = wall;
      r_setup = (if o.elected then setup else wall);
      r_causal = Option.map Abe_substrate.Telemetry.Collector.merge collector }
  | Error _ ->
    { r_seed = seed; r_ok = false; r_outcome = None; r_wall = wall;
      r_setup = wall; r_causal = None }

(* -------------------------------------------------------------- batches *)

type batch = {
  wall : float;
  sims : sim list;
  reals : real list;
  calls : (float * float) list;  (* per driver call: (call instant, first task start) *)
  merge_s : float;
}

let driver_of ~parallel =
  if parallel && nproc > 1 then Abe_harness.Driver.parallel ~num_domains:nproc ()
  else Abe_harness.Driver.sequential

(* One group of replicates per ring size, as the [sweep] command runs
   them through [Exp.replicate] on the driver. *)
let sweep_batch ~smoke ~(sinks : sinks) ~parallel ~seed ~batch =
  let driver = driver_of ~parallel in
  let t0 = Unix.gettimeofday () in
  let merge_s = ref 0. in
  let groups =
    List.map
      (fun n ->
         let config = sweep_config n in
         let base = base ~seed ~batch ~group:n in
         let called = Unix.gettimeofday () in
         let task ~seed = Spans.with_span "driver.task" (fun () -> run_sim ~sinks config ~n ~seed) in
         let sims =
           Spans.with_span "driver.replicate" (fun () ->
               Abe_harness.Exp.replicate ~driver ~base ~count:per_size task)
         in
         if sinks.metrics then begin
           (* Per-replicate registries folded in seed order after the batch,
              as [Exp.replicate_merged] does, timed on their own. *)
           let m0 = Unix.gettimeofday () in
           let merged = Abe_sim.Metrics.create () in
           List.iter (fun s -> Option.iter (fun m -> Abe_sim.Metrics.merge_into ~into:merged m) s.metrics) sims;
           merge_s := !merge_s +. (Unix.gettimeofday () -. m0)
         end;
         let first =
           List.fold_left (fun acc (s : sim) -> Float.min acc s.started) infinity sims
         in
         (sims, (called, first)))
      (sweep_sizes ~smoke)
  in
  let sims = List.concat_map fst groups in
  { wall = Unix.gettimeofday () -. t0;
    sims = List.map (fun s -> { s with metrics = None }) sims;
    reals = [];
    calls = List.map snd groups;
    merge_s = !merge_s }

(* The election seed of a one-election batch. *)
let batch_seed ~seed ~batch =
  List.hd (Abe_harness.Exp.seeds ~base:(base ~seed ~batch ~group:0) ~count:1)

let real_batch ~telemetry ~seed ~batch =
  let t0 = Unix.gettimeofday () in
  let r = run_real ~telemetry ~seed:(batch_seed ~seed ~batch) in
  { wall = Unix.gettimeofday () -. t0; sims = []; reals = [ r ]; calls = []; merge_s = 0. }

(* Batch [batch] of workload [kind]; [traced] selects the traced variant
   (real-ring: telemetry collector attached). *)
let batch kind ~smoke ~traced ~seed ~batch:b =
  match kind with
  | Sweep -> sweep_batch ~smoke ~sinks:no_sinks ~parallel:true ~seed ~batch:b
  | Real_ring -> real_batch ~telemetry:traced ~seed ~batch:b

(* The first [window] batches of every run: a fixed set of inputs for the
   figures that count or sum work.  Peak RSS is read at its end, not at
   the end of the run, because every [Driver.map] spawns fresh domains and
   resident memory grows with each spawn; the traced run's sums and GC
   counts cover it alone.  Either, taken over the whole timed loop, would
   grow with speed. *)
let window ~smoke = if smoke then 1 else 20

(* Closed loop: batches until [seconds] of wall time are spent and the
   window is complete (one batch in smoke mode).  Returns the batches in
   order, one set-up sample per batch, and the VmHWM, in MiB, at the end
   of the window.  A real batch's sample is its elections' set-up; the
   simulator's is a [sim_setup_sample] taken after each batch, so that
   the samples spread over the whole run as the batches do. *)
let timed_loop kind ~smoke ~seconds ~seed =
  let window = window ~smoke in
  let sample = match kind with Sweep -> Some (sim_setup_sample ~smoke) | Real_ring -> None in
  let t0 = Unix.gettimeofday () in
  let rss = ref nan in
  let rec go b acc =
    if b = window then rss := Pb_stats.peak_rss_mb ();
    let elapsed = Unix.gettimeofday () -. t0 in
    if b >= window && (smoke || elapsed >= seconds) then List.rev acc
    else begin
      let batch = batch kind ~smoke ~traced:false ~seed ~batch:b in
      let setup =
        match sample with
        | Some sample -> sample ()
        | None -> List.fold_left (fun acc r -> acc +. r.r_setup) 0. batch.reals
      in
      go (b + 1) ((batch, setup) :: acc)
    end
  in
  let batches, setups = List.split (go 0 []) in
  (batches, setups, !rss)

(* ------------------------------------------------------ canonical check *)

(* Fixed-seed elections whose digest is pinned in pinned_digests.txt: a
   change that alters any simulated statistic fails every run.
   real-ring pins its simulator references (real timing is not
   reproducible).  Their mean size is also the unit the timings are
   normalised to (see perfbench.ml). *)
let canonical kind ~smoke =
  (* Batch 0 of seed 0 has bases 16, 32, 64, 128: fixed, whatever --seed. *)
  let sweep ~sinks ~parallel = (sweep_batch ~smoke ~sinks ~parallel ~seed:0 ~batch:0).sims in
  match kind with
  | Sweep ->
    (* Sequential and nproc domains must agree: the driver's determinism. *)
    [ sweep ~sinks:no_sinks ~parallel:true; sweep ~sinks:no_sinks ~parallel:false ]
  | Real_ring ->
    [ Abe_harness.Exp.replicate ~base:8 ~count:(if smoke then 4 else 64) (fun ~seed ->
          run_sim ~sinks:no_sinks real_sim_config ~n:real_n ~seed) ]
