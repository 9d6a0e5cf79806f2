(* The repo benchmark.  One command runs a named workload for a given time,
   checks the program's outputs, and prints one JSON object as its last
   line: the end-to-end metrics (--trace 0), or the per-layer metrics of
   a traced replay of the same inputs (--trace 1).

     perfbench.exe --workload sweep --seed 1 --seconds 20 --trace 0
       --pins perfbench/pinned_digests.txt [--out DIR] [--smoke]

   perfbench/run.py builds and invokes it; see perfbench/README.md. *)

let end_to_end =
  [ ("elections_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("lag_p50_ms", "ms");
    ("lag_p90_ms", "ms");
    ("engine.s", "s");
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.max_queue_depth", "count");
    ("engine.raw_events_per_s", "1/s");
    ("election.tick_ns", "ns");
    ("election.receive_ns", "ns");
    ("network.create_s", "s");
    ("network.create_bytes_per_node", "B");
    ("network.token_events_per_s", "1/s");
    ("runner.bytes_per_event", "B");
    ("runner.bytes_per_node", "B");
    ("driver.busy_s", "s");
    ("driver.idle_share", "share");
    ("driver.task_inflation", "ratio");
    ("driver.spawn_ms", "ms");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.pause_s", "s");
    ("gc.pause_share", "share");
    ("sink.check_s", "s");
    ("sink.metrics_s", "s");
    ("sink.causal_s", "s");
    ("sink.trace_s", "s");
    ("sink.readout_s", "s");
    ("sink.bytes_per_event", "B");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("cluster.setup_p50_ms", "ms");
    ("cluster.excess_p50_ms", "ms");
    ("worker.handler_ms", "ms");
    ("critpath.link_ms", "ms");
    ("critpath.proc_ms", "ms");
    ("critpath.idle_ms", "ms");
    ("telemetry.overhead_ms", "ms");
    ("elect_real.leader_mismatch", "count");
    ("elect_real.diverged", "count");
    ("trace.overhead_share", "share");
    ("trace.span_coverage", "share");
    ("failed_share", "share") ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

type args = {
  workload : string;
  kind : Work.kind;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  pins : string;
  out : string;
  rev : string;
  profile : string;
}

let parse_args () =
  let get = Hashtbl.create 8 in
  let smoke = ref false in
  let keys = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--pins"; "--out"; "--rev"; "--profile" ] in
  let rec go = function
    | "--smoke" :: rest -> smoke := true; go rest
    | key :: value :: rest when List.mem key keys -> Hashtbl.replace get key value; go rest
    | [] -> ()
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  let find key = match Hashtbl.find_opt get key with Some v -> v | None -> die "missing %s" key in
  let int key = match int_of_string_opt (find key) with Some v -> v | None -> die "%s: not an integer" key in
  let workload = find "--workload" in
  let kind =
    match List.assoc_opt workload Work.kinds with
    | Some k -> k
    | None -> die "unknown workload %S" workload
  in
  let seconds = int "--seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  let traced =
    match find "--trace" with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1"
  in
  let opt key default = Option.value (Hashtbl.find_opt get key) ~default in
  { workload; kind; seed = int "--seed"; seconds = float_of_int seconds; traced;
    smoke = !smoke; pins = find "--pins"; out = opt "--out" ".";
    rev = opt "--rev" "unknown"; profile = opt "--profile" "unknown" }

(* ------------------------------------------------------------ helpers *)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sims (bs : Work.batch list) = List.concat_map (fun (b : Work.batch) -> b.sims) bs
let reals (bs : Work.batch list) = List.concat_map (fun (b : Work.batch) -> b.reals) bs
let elections (bs : Work.batch list) = List.length (sims bs) + List.length (reals bs)

let failures (bs : Work.batch list) =
  List.length (List.filter (fun (s : Work.sim) -> not s.ok) (sims bs))
  + List.length (List.filter (fun (r : Work.real) -> not r.r_ok) (reals bs))

(* The simulator's answer for each real election's seed, computed outside
   every timed section. *)
let sim_references (rs : Work.real list) =
  List.map
    (fun (r : Work.real) ->
       Work.run_sim ~sinks:Work.no_sinks Work.real_sim_config ~n:Work.real_n ~seed:r.r_seed)
    rs

(* A 20-second run holds too few elections to average out how much their
   work differs from seed to seed (elected_at is heavy-tailed), so timings
   are normalised to the mean canonical election ([mean]: its executed
   events for the simulator, its simulated elected_at for the real
   backend), which the pinned digests fix.

   Elections per wall second at the mean election, the median over
   batches so that a burst of host noise moves few of them.  Simulator:
   a batch's events per second over mean events per election.  Real
   backend: one over each election's wall with its simulated elected_at
   replaced by the mean. *)
let elections_per_s (bs : Work.batch list) ~refs ~mean =
  match reals bs with
  | [] ->
    Pb_stats.median
      (List.map
         (fun (b : Work.batch) ->
            sum (fun (s : Work.sim) -> float_of_int s.record.events) b.sims /. b.wall /. mean)
         bs)
  | rs ->
    Pb_stats.median
      (List.map2
         (fun (r : Work.real) (s : Work.sim) ->
            1. /. (r.r_wall -. (Work.real_scale *. (s.record.elected_at -. mean))))
         rs refs)

(* Wall ms the backend adds per election on top of the model's timeline.
   Real backend: (real - simulated elected_at) x scale for the same seed.
   Simulator: model time costs no wall time, so the whole election (sink
   read-out included), scaled to the mean election. *)
let lags (bs : Work.batch list) ~refs ~mean =
  match reals bs with
  | [] ->
    List.map
      (fun (s : Work.sim) -> (s.wall +. s.readout) /. float_of_int s.record.events *. mean *. 1e3)
      (sims bs)
  | rs ->
    List.concat
      (List.map2
         (fun (r : Work.real) (s : Work.sim) ->
            match r.r_outcome with
            | Some o when o.elected ->
              [ (o.elected_at -. s.record.elected_at) *. Work.real_scale *. 1e3 ]
            | _ -> [])
         rs refs)

let config_of kind n =
  match kind with Work.Sweep -> Work.sweep_config n | Real_ring -> Work.real_sim_config

let workload_n (a : args) =
  match a.kind with
  | Sweep -> List.fold_left max 0 (Work.sweep_sizes ~smoke:a.smoke)
  | Real_ring -> Work.real_n

let rec take k = function x :: xs when k > 0 -> x :: take (k - 1) xs | _ -> []

(* ------------------------------------------------------ traced replay *)

type traced = {
  layers : (string * float) list;
  attempted : int;
  failed : int;
  coverage : float list;
  trace_file : string;
}

let traced_run (a : args) ~untraced ~refs ~lag =
  (* Every sum and count below covers the window's fixed inputs, never the
     whole timed loop, whose length follows speed. *)
  let untraced = take (Work.window ~smoke:a.smoke) untraced in
  let refs = take (List.length (reals untraced)) refs in
  let b_count = List.length untraced in
  let gc0 = (Gc.quick_stat ()).major_collections in
  Spans.start ();
  (* Construction-only probes of each election (of each simulator
     reference on real-ring), outside the batch timing. *)
  let probe_sims = if a.kind = Real_ring then refs else sims untraced in
  let probes =
    List.map (fun (s : Work.sim) -> Work.setup_probe (config_of a.kind s.n) ~n:s.n ~seed:s.seed) probe_sims
  in
  let replay =
    List.init b_count (fun b -> Work.batch a.kind ~smoke:a.smoke ~traced:true ~seed:a.seed ~batch:b)
  in
  Spans.stop_gc ();
  let minor = !Spans.minor_collections in
  let pause = Spans.gc_pause_s () in
  let major = (Gc.quick_stat ()).major_collections - gc0 in
  let w_traced = sum (fun (b : Work.batch) -> b.wall) replay in
  (* Paired by batch, as a median: the window's first batches also pay
     the process's warm-up, which the replay does not. *)
  let overhead =
    Pb_stats.median
      (List.map2 (fun (u : Work.batch) (t : Work.batch) -> (t.wall /. u.wall) -. 1.) untraced replay)
  in
  let domains = match a.kind with Sweep -> Work.nproc | _ -> 1 in
  let coverage =
    match reals replay with
    | [] -> List.map2 (fun (s : Work.sim) (probe, _) -> (probe +. s.engine) /. s.wall) (sims replay) probes
    | rs ->
      let setup = Pb_stats.median (List.map (fun (r : Work.real) -> r.r_setup) (reals untraced)) in
      List.filter_map
        (fun (r : Work.real) ->
           Option.map
             (fun (o : Abe_substrate.Elect_real.outcome) ->
                (setup +. (Work.real_scale *. o.elected_at)) /. r.r_wall)
             r.r_outcome)
        rs
  in
  (* The engine and runner rows come from the untraced window (the real
     workload's from its simulator references). *)
  let engine_sims = probe_sims in
  let engine_s = sum (fun (s : Work.sim) -> s.engine) engine_sims in
  let events = sum (fun (s : Work.sim) -> float_of_int s.record.events) engine_sims in
  (* Construction bytes per node: the setup probes' own allocation. *)
  let per_node = Pb_stats.median (List.map snd probes) in
  let n = workload_n a in
  let sweep_k = if a.smoke then 1 else 4 in
  let real_layers =
    match a.kind with
    | Real_ring ->
      Probes.real ~untraced:(reals untraced) ~traced:(reals replay) ~refs
    | _ ->
      let seeds = List.init (if a.smoke then 2 else 6) (fun b -> Work.batch_seed ~seed:a.seed ~batch:b) in
      let run telemetry = List.map (fun seed -> Work.run_real ~telemetry ~seed) seeds in
      let untraced = run false in
      let traced = run true in
      Probes.real ~untraced ~traced ~refs:(sim_references untraced)
  in
  let probe name f = Spans.with_span ("probe." ^ name) f in
  (* The driver and sink probes go first: after the explicit full majors
     of the construction probe, major collections in this process stall
     (OCaml 5.1.1) and the sink probe's heap grows tenfold. *)
  let driver = probe "driver" (fun () -> Probes.driver ~smoke:a.smoke ~k:sweep_k) in
  let sinks, checked = probe "sinks" (fun () -> Probes.sinks ~smoke:a.smoke ~k:sweep_k) in
  let raw = probe "engine_raw" (fun () ->
      Engine_core.raw_engine ~events:(if a.smoke then 200_000 else 2_000_000) ~chains:64 ~reps:3)
  in
  let co = probe "network_create" (fun () ->
      Engine_core.construction ~n ~reps:20)
  in
  let token = probe "network_token" (fun () ->
      Probes.token_events_per_s ~n ~delta:1. ~events:1_000_000)
  in
  let encode_ns, decode_ns = probe "wire" Probes.wire_ns in
  let tick_ns = probe "tick" (fun () -> Probes.tick_ns ~seed:a.seed) in
  let receive_ns = probe "receive" (fun () -> Probes.receive_ns ~n) in
  Spans.stop ();
  let checked_failed = List.length (List.filter (fun (s : Work.sim) -> not s.ok) checked) in
  let attempted = elections untraced + elections replay + List.length checked in
  let failed = failures untraced + failures replay + checked_failed in
  let trace_file =
    Filename.concat a.out (Printf.sprintf "trace-%s-%d.json" a.workload a.seed)
  in
  Spans.write_chrome trace_file;
  let layers =
    [ ("engine.s", engine_s);
      ("engine.events", events);
      ("engine.events_per_s", events /. engine_s);
      ("engine.max_queue_depth",
       float_of_int (List.fold_left (fun acc (s : Work.sim) -> max acc s.max_queue) 0 engine_sims));
      ("engine.raw_events_per_s", raw.raw_rate);
      ("election.tick_ns", tick_ns);
      ("election.receive_ns", receive_ns);
      ("network.create_s", co.co_seconds);
      ("network.create_bytes_per_node", co.co_alloc_per_node);
      ("network.token_events_per_s", token);
      ("runner.bytes_per_event", sum (fun (s : Work.sim) -> s.alloc) engine_sims /. events);
      ("runner.bytes_per_node", per_node);
      ("gc.minor_collections", float_of_int minor);
      ("gc.major_collections", float_of_int major);
      ("gc.pause_s", pause);
      ("gc.pause_share", pause /. (w_traced *. float_of_int domains));
      ("wire.encode_ns", encode_ns);
      ("wire.decode_ns", decode_ns);
      ("lag_p50_ms", Pb_stats.percentile lag 0.5);
      ("lag_p90_ms", Pb_stats.percentile lag 0.9);
      ("trace.overhead_share", overhead);
      ("trace.span_coverage", Pb_stats.median coverage);
      ("failed_share", float_of_int failed /. float_of_int attempted) ]
    @ driver @ sinks @ real_layers
  in
  { layers; attempted; failed; coverage; trace_file }

(* ---------------------------------------------------------- provenance *)

let load_avg_1m () =
  match String.split_on_char ' ' (Pb_stats.read_file "/proc/loadavg") with
  | first :: _ -> first
  | [] -> "unknown"

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Spans.json_string k ^ ": " ^ v) fields) ^ "}"

let () =
  let a = parse_args () in
  let pins =
    match Pb_stats.read_file a.pins with
    | text -> Pb_stats.parse_pins text
    | exception Sys_error m -> die "cannot read pinned digests: %s" m
  in
  let load = load_avg_1m () in
  (* Canonical check: fixed-seed elections whose digest is pinned. *)
  let size = if a.smoke then "smoke" else "full" in
  let pinned = List.assoc_opt (a.workload, size) pins in
  let canonical = Work.canonical a.kind ~smoke:a.smoke in
  let digests =
    List.map (fun ss -> Pb_stats.digest (List.map (fun (s : Work.sim) -> s.record) ss)) canonical
  in
  let digest_ok = List.for_all (fun d -> Some d = pinned) digests in
  if not digest_ok then
    Printf.eprintf "perfbench: %s %s digest %s, pinned %s\n%!" a.workload size
      (String.concat "/" digests) (Option.value pinned ~default:"(none)");
  let canonical_n = List.length (List.concat canonical) in
  let canonical_failed =
    if digest_ok then List.length (List.filter (fun (s : Work.sim) -> not s.ok) (List.concat canonical))
    else canonical_n
  in
  let mean =
    let base = List.hd canonical in
    sum
      (fun (s : Work.sim) ->
         if a.kind = Real_ring then s.record.elected_at else float_of_int s.record.events)
      base
    /. float_of_int (List.length base)
  in
  let untraced, setups, rss = Work.timed_loop a.kind ~smoke:a.smoke ~seconds:a.seconds ~seed:a.seed in
  let refs = sim_references (reals untraced) in
  let lag = lags untraced ~refs ~mean in
  let metrics, attempted, failed, extra =
    if not a.traced then begin
      let values =
        [ ("elections_per_s", elections_per_s untraced ~refs ~mean);
          ("setup_s", Pb_stats.median setups);
          ("peak_rss_mb", rss) ]
      in
      ( List.map (fun (name, unit) -> (name, unit, List.assoc name values)) end_to_end,
        elections untraced,
        failures untraced,
        [] )
    end
    else begin
      let t = traced_run a ~untraced ~refs ~lag in
      ( List.map (fun (name, unit) -> (name, unit, List.assoc name t.layers)) per_layer,
        t.attempted,
        t.failed,
        [ ("trace_file", Spans.json_string t.trace_file);
          ("span_coverage_min", json_num (List.fold_left Float.min infinity t.coverage));
          ("span_coverage_max", json_num (List.fold_left Float.max neg_infinity t.coverage));
          ("span_coverage_within_5pct",
           json_num
             (float_of_int (List.length (List.filter (fun c -> Float.abs (c -. 1.) <= 0.05) t.coverage))
              /. float_of_int (List.length t.coverage)));
          ("gc_lost_events", string_of_int !Spans.lost_events) ] )
    end
  in
  let attempted = attempted + canonical_n in
  let failed = failed + canonical_failed in
  let correct = failed = 0 && digest_ok in
  let str = Spans.json_string in
  print_endline
    (json_obj
       [ ("provenance",
          json_obj
            ([ ("workload", str a.workload);
               ("seed", string_of_int a.seed);
               ("seconds", json_num a.seconds);
               ("trace", string_of_bool a.traced);
               ("smoke", string_of_bool a.smoke);
               ("git_rev", str a.rev);
               ("build_profile", str a.profile);
               ("nproc", string_of_int Work.nproc);
               ("ocaml_version", str Sys.ocaml_version);
               ("ocamlrunparam", str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
               ("loadavg_1m_at_start", str load);
               ("vmhwm_mb", json_num (Pb_stats.peak_rss_mb ()));
               ("batches", string_of_int (List.length untraced));
               ("elections", string_of_int (elections untraced));
               ("lag_samples", string_of_int (List.length lag));
               ("lag_beyond_p90", string_of_int (Pb_stats.beyond lag 0.9));
               ("canonical_digests", str (String.concat "/" digests));
               ("canonical_mean", json_num mean) ]
             @ extra)) ]);
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics",
          json_obj
            (List.map
               (fun (name, unit, v) ->
                  (name, json_obj [ ("value", json_num v); ("unit", str unit) ]))
               metrics)) ]);
  exit (if correct then 0 else 1)
