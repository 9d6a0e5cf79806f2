(* Engine-core benchmark: the numbers behind BENCH_engine.json.

   Three measurements, matching the ROADMAP scale targets:
   - raw engine throughput: self-rescheduling event chains on a bare
     engine (no network, no protocol), the ceiling of the fast loop.  The
     engine keeps three queues (see engine.ml): a same-instant lane, a
     sorted run appended to at its tail, and a heap.  The headline chains
     share their timestamps and reschedule by a constant delay, so they
     live in the run; a "tick pair" row alternates a delay-0 completion
     with a delay-1 refire, as a tick with instantaneous processing does,
     so half of its events take the lane; a "ticking ring" row drives the
     lane and the run through [Network]'s tick chains on a null-protocol
     ring; a "random delay" row reschedules by delays from a fixed
     exponential table, so inserts land below the run's tail and take the
     heap and the tail-eviction path;
   - allocation rate on that loop via [Gc.allocated_bytes] — the
     flat-core refactor's contract is ~0 bytes per event;
   - election wall-time at ring sizes up to n = 10^6.  Huge rings run in
     a sub-tick delay regime (δ = 0.1/n, a0 = 1/n): link transit is far
     below the tick period, so a token laps the ring between tick rounds
     and the election resolves in a handful of rounds — total events stay
     O(n · rounds) instead of the O(n · elected_at) of the default
     regime, which would be ~10^12 events at this scale.  Ring-wide mass
     sampling and the phase log (O(n^2) bookkeeping) are opted out. *)

type raw = {
  raw_events : int;
  raw_chains : int;
  raw_seconds : float;
  raw_rate : float;          (* events per second *)
  raw_alloc_per_event : float;  (* bytes *)
}

(* Best of [reps] measurements of [prepare ()], which builds a fresh
   engine (or network) and returns a function that runs it and returns the
   executed-event count.  Wall-clock on a shared host is noisy and the
   best run is the closest estimate of what the loop actually costs. *)
let best_raw ~chains ~reps prepare =
  let one () =
    let run = prepare () in
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let executed = run () in
    let dt = Unix.gettimeofday () -. t0 in
    let allocated = Gc.allocated_bytes () -. a0 in
    { raw_events = executed;
      raw_chains = chains;
      raw_seconds = dt;
      raw_rate = float_of_int executed /. dt;
      raw_alloc_per_event = allocated /. float_of_int executed }
  in
  let best = ref (one ()) in
  for _ = 2 to reps do
    let r = one () in
    if r.raw_rate > !best.raw_rate then best := r
  done;
  !best

(* [chains] independent event chains, each started by [start] on a fresh
   engine, run until [events] events have executed — so [chains] is also
   the steady-state queue depth. *)
let raw_chains ~start ~events ~chains ~reps =
  let open Abe_sim in
  best_raw ~chains ~reps (fun () ->
      let e = Engine.create ~limit_events:events () in
      for _ = 1 to chains do
        start e
      done;
      fun () ->
        let (_ : Engine.outcome) = Engine.run e in
        Engine.executed_events e)

(* Each chain reschedules itself with a constant delay.  The per-chain
   closure is allocated once, so steady-state scheduling cost is exactly
   one arena slot reuse plus one append to the engine's run per event. *)
let raw_engine =
  raw_chains ~start:(fun e ->
      let open Abe_sim in
      let rec act () = ignore (Engine.schedule e ~delay:1.0 act) in
      ignore (Engine.schedule e ~delay:1.0 act))

(* Each chain fires, queues its completion at the same instant (delay 0),
   and the completion queues the next firing one time unit later. *)
let raw_tick_pair =
  raw_chains ~start:(fun e ->
      let open Abe_sim in
      let rec fire () = ignore (Engine.schedule e ~delay:0. complete)
      and complete () = ignore (Engine.schedule e ~delay:1.0 fire) in
      ignore (Engine.schedule e ~delay:1.0 fire))

(* Each chain reschedules itself after the next delay from a fixed table
   of Exp(1) samples (inverse-CDF images of a Weyl sequence, so the bench
   needs no RNG and every build sees the same delays).  One cursor is
   shared by every chain, so chains interleave instead of moving in
   lockstep.  A chain keeps its own time in a flat cell and hands it to
   [schedule_tagged], so no float is boxed per event. *)
let raw_random_delay ~events ~chains ~reps =
  let table =
    Array.init 4096 (fun i ->
        let u = Float.rem (float_of_int i *. 0.6180339887498949) 1. in
        -.Float.log1p (-.u))
  in
  let cursor = ref 0 in
  raw_chains ~events ~chains ~reps ~start:(fun e ->
      let open Abe_sim in
      let at = [| 0. |] in
      let rec act () =
        let k = !cursor in
        cursor := (k + 1) land (Array.length table - 1);
        at.(0) <- at.(0) +. Array.unsafe_get table k;
        ignore (Engine.schedule_tagged e ~tag:(-1) ~footprint:0 at 0 act)
      in
      act ())

type construction = {
  co_n : int;
  co_seconds : float;
  co_alloc_per_node : float;  (* bytes *)
}

(* Network construction in isolation: per-node RNG splits, clocks, context
   closures, and first-tick scheduling — everything [create] does before
   the first event runs.  This is the piece the batched-construction work
   targets; on a 10^6-node ring it used to rival the election itself. *)
module Null_protocol = struct
  type state = unit
  type message = unit

  let pp_state ppf () = Fmt.string ppf "()"
  let pp_message ppf () = Fmt.string ppf "()"
end

module Null_net = Abe_net.Network.Make (Null_protocol)

(* A ring of [n] null-protocol nodes: default config (ticks on), handlers
   that send nothing. *)
let null_ring n =
  let delay =
    Abe_net.Delay_model.of_dist (Abe_prob.Dist.exponential ~mean:1.)
  in
  ( Null_net.default_config ~topology:(Abe_net.Topology.ring n) ~delay,
    { Null_net.init = (fun _ -> ());
      on_message = (fun _ state () -> state);
      on_tick = (fun _ state -> state) } )

let construction ~n ~reps =
  let config, handlers = null_ring n in
  let one () =
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let net = Null_net.create ~seed:1 config handlers in
    let dt = Unix.gettimeofday () -. t0 in
    let allocated = Gc.allocated_bytes () -. a0 in
    ignore (Sys.opaque_identity net);
    (dt, allocated)
  in
  let best = ref (one ()) in
  for _ = 2 to reps do
    let r = one () in
    if fst r < fst !best then best := r
  done;
  let seconds, allocated = !best in
  { co_n = n;
    co_seconds = seconds;
    co_alloc_per_node = allocated /. float_of_int n }

(* A ring of [n] null-protocol nodes with ticks on and nothing sent: each
   tick fires, completes at the same instant and refires one period
   later, as [Network] drives the idle rounds of an election. *)
let raw_ticking_ring ~events ~n ~reps =
  let config, handlers = null_ring n in
  best_raw ~chains:n ~reps (fun () ->
      let net =
        Null_net.create ~limit_events:events ~seed:1 config handlers
      in
      fun () ->
        let (_ : Abe_sim.Engine.outcome) = Null_net.run net in
        (Null_net.counters net).Abe_sim.Engine.executed)

type election = {
  el_n : int;
  el_seed : int;
  el_elected : bool;
  el_elected_at : float;
  el_events : int;
  el_messages : int;
  el_ticks : int;
  el_seconds : float;
  el_rate : float;  (* engine events per second, protocol included *)
}

let election ~n ~seed =
  let inv_n = 1. /. float_of_int n in
  let delta = 0.1 *. inv_n in
  let params =
    Abe_core.Params.make ~delta ~gamma:0. ~clock:Abe_net.Clock.perfect
  in
  let config =
    Abe_core.Runner.config ~n ~a0:inv_n ~params
      ~limit_events:2_000_000_000 ~record_mass:false ~record_phases:false ()
  in
  let t0 = Unix.gettimeofday () in
  let outcome = Abe_core.Runner.run ~seed config in
  let dt = Unix.gettimeofday () -. t0 in
  { el_n = n;
    el_seed = seed;
    el_elected = outcome.Abe_core.Runner.elected;
    el_elected_at = outcome.Abe_core.Runner.elected_at;
    el_events = outcome.Abe_core.Runner.executed_events;
    el_messages = outcome.Abe_core.Runner.messages;
    el_ticks = outcome.Abe_core.Runner.ticks;
    el_seconds = dt;
    el_rate = float_of_int outcome.Abe_core.Runner.executed_events /. dt }

(* [raws] are the named raw rows ([raw_engine] first), each written as
   one object. *)
let write_json ~quick ~raws ~sweep ~construction:co ~notes ~elections path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"abe-engine-bench/v1\",\n\
    \  \"mode\": %S,\n"
    (if quick then "quick" else "full");
  List.iter
    (fun (name, r) ->
       Printf.fprintf oc
         "  %S: {\n\
         \    \"chains\": %d,\n\
         \    \"events\": %d,\n\
         \    \"seconds\": %.6f,\n\
         \    \"events_per_sec\": %.1f,\n\
         \    \"alloc_bytes_per_event\": %.4f\n\
         \  },\n"
         name r.raw_chains r.raw_events r.raw_seconds r.raw_rate
         r.raw_alloc_per_event)
    raws;
  Printf.fprintf oc "  \"raw_sweep\": [\n";
  List.iteri
    (fun i r ->
       Printf.fprintf oc
         "    { \"chains\": %d, \"events_per_sec\": %.1f, \
          \"alloc_bytes_per_event\": %.4f }%s\n"
         r.raw_chains r.raw_rate r.raw_alloc_per_event
         (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf oc
    "  ],\n\
    \  \"construction\": {\n\
    \    \"n\": %d,\n\
    \    \"seconds\": %.6f,\n\
    \    \"alloc_bytes_per_node\": %.1f,\n\
    \    \"notes\": %S\n\
    \  },\n"
    co.co_n co.co_seconds co.co_alloc_per_node notes;
  Printf.fprintf oc "  \"elections\": [\n";
  List.iteri
    (fun i el ->
       Printf.fprintf oc
         "    { \"n\": %d, \"seed\": %d, \"elected\": %b, \
          \"elected_at\": %.6f, \"events\": %d, \"messages\": %d, \
          \"ticks\": %d, \"seconds\": %.6f, \"events_per_sec\": %.1f }%s\n"
         el.el_n el.el_seed el.el_elected el.el_elected_at el.el_events
         el.el_messages el.el_ticks el.el_seconds el.el_rate
         (if i = List.length elections - 1 then "" else ","))
    elections;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run ~quick () =
  Fmt.pr "@.== Engine core bench (%s) ==@." (if quick then "quick" else "full");
  let events, reps = if quick then (5_000_000, 5) else (10_000_000, 9) in
  let depths = if quick then [ 64 ] else [ 16; 64; 256 ] in
  let sweep =
    List.map
      (fun chains ->
         let r = raw_engine ~events ~chains ~reps in
         Fmt.pr
           "raw engine: %d events, %d chains: %.3f s, %.3e events/s, %.2f \
            B/event@."
           r.raw_events r.raw_chains r.raw_seconds r.raw_rate
           r.raw_alloc_per_event;
         r)
      depths
  in
  (* Headline figure: queue depth 64, a mid-size steady state. *)
  let raw =
    match List.filter (fun r -> r.raw_chains = 64) sweep with
    | r :: _ -> r
    | [] -> List.hd sweep
  in
  let raws =
    [ ("raw_engine", raw);
      ("raw_tick_pair", raw_tick_pair ~events ~chains:64 ~reps);
      ("raw_ticking_ring", raw_ticking_ring ~events ~n:128 ~reps);
      ("raw_random_delay", raw_random_delay ~events ~chains:64 ~reps) ]
  in
  List.iter
    (fun (name, r) ->
       Fmt.pr "%s: %d events, %d chains: %.3f s, %.3e events/s, %.2f B/event@."
         name r.raw_events r.raw_chains r.raw_seconds r.raw_rate
         r.raw_alloc_per_event)
    (List.tl raws);
  let co_n = if quick then 100_000 else 1_000_000 in
  let co = construction ~n:co_n ~reps:(if quick then 3 else 5) in
  Fmt.pr "construction n=%d: %.3f s, %.1f B/node@." co.co_n co.co_seconds
    co.co_alloc_per_node;
  let notes =
    "batched-construction pass (allocation-free stream seeding, loss \
     streams skipped when loss is off, scheduler footprints gated, shared \
     now/stop closures, per-model delay validation): ring construction at \
     n=10^6 measured 1.257 s / 2680 B/node before the pass on this host; \
     the section above is the post-pass re-measurement (~1.0 s / 2137 \
     B/node at the time of the change)"
  in
  let sizes = if quick then [ 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let elections =
    List.map
      (fun n ->
         let el = election ~n ~seed:1 in
         Fmt.pr
           "election n=%d: elected=%b at t=%.4f, %d events (%d msgs, %d \
            ticks) in %.3f s (%.3e events/s)@."
           el.el_n el.el_elected el.el_elected_at el.el_events el.el_messages
           el.el_ticks el.el_seconds el.el_rate;
         el)
      sizes
  in
  let path = Bench_out.artifact "BENCH_engine.json" in
  write_json ~quick ~raws ~sweep ~construction:co ~notes ~elections path;
  Fmt.pr "wrote %s@." path
