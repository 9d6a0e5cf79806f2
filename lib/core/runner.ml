open Abe_prob
open Abe_net

type config = {
  n : int;
  a0 : float;
  params : Params.t;
  delay : Delay_model.t;
  link_delays : Delay_model.t array option;
  proc_delay : Dist.t option;
  limit_time : float;
  limit_events : int;
  crash_times : (int * float) list;
  fault : Faults.t;
  record_mass : bool;
  record_phases : bool;
}

let config ?(a0 = 0.3) ?(params = Params.default) ?delay ?link_delays
    ?proc_delay ?(limit_time = 1e7) ?(limit_events = 200_000_000)
    ?(crash_times = []) ?(fault = Faults.none) ?(record_mass = true)
    ?(record_phases = true) ~n () =
  if n < 2 then invalid_arg "Runner.config: n must be >= 2";
  if not (a0 > 0. && a0 < 1.) then invalid_arg "Runner.config: a0 outside (0,1)";
  let delay =
    match delay with
    | Some d -> d
    | None -> Delay_model.abe_exponential ~delta:params.Params.delta
  in
  let proc_delay = Option.join proc_delay in
  let check_admissible model =
    if not (Params.admits_delay params model) then
      invalid_arg
        (Fmt.str
           "Runner.config: delay model %a has expected delay %g > delta %g — \
            not an ABE network for these parameters"
           Delay_model.pp model
           (Delay_model.expected_delay model)
           params.Params.delta)
  in
  check_admissible delay;
  Option.iter
    (fun models ->
       if Array.length models <> n then
         invalid_arg "Runner.config: link_delays must have one entry per node";
       Array.iter check_admissible models)
    link_delays;
  if not (Params.admits_processing params proc_delay) then
    invalid_arg "Runner.config: processing-time mean exceeds gamma";
  (* Fault entities are checked here, not left to [Network.create]: a bad
     id is a user input error, and the ring of [n] nodes has exactly the
     links [0 .. n-1] (link [i] leaves node [i]). *)
  let check_id what id =
    if id < 0 || id >= n then
      invalid_arg
        (Printf.sprintf
           "Runner.config: fault %s %d out of range (the ring has %ss 0..%d)"
           what id what (n - 1))
  in
  List.iter (fun (node, _) -> check_id "node" node) crash_times;
  List.iter (fun (node, _) -> check_id "node" node) fault.Faults.crashes;
  List.iter (fun (node, _) -> check_id "node" node) fault.Faults.revivals;
  List.iter (fun (link, _, _) -> check_id "link" link) fault.Faults.link_downs;
  (* Admissibility is checked on the base models only: a fault scenario
     deliberately perturbs the network outside its advertised bounds —
     that is the point of injecting it. *)
  { n; a0; params; delay; link_delays; proc_delay; limit_time; limit_events;
    crash_times; fault; record_mass; record_phases }

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  elected_at : float;
  messages : int;
  activations : int;
  knockouts : int;
  purges : int;
  ticks : int;
  activation_times : float array;
  mass_samples : (float * int * int) array;
  phase_transitions : (float * int * Election.phase) array;
  executed_events : int;
  max_queue_depth : int;
  wall_time : float;
  engine_outcome : Abe_sim.Engine.outcome;
  violations : Abe_sim.Oracle.violation list;
  stalled : string option;
  announce : announce option;
}

and announce = {
  announce_messages : int;
  all_informed : bool;
  informed_at : float;
}

(* The wire message is the election hop counter plus a monitor-side tag:
   [traversed] counts the links the token has actually crossed since
   emission.  Handlers never read it — only the hop-soundness check
   ([hop = traversed] on every arrival) does, so tagging cannot change the
   execution.  Both travel packed in one immediate, [traversed] above the
   hop's [hop_bits], so a send allocates no record.  Election hops are
   [1 .. n]; the packed 0 is reserved for the announcement lap. *)
type token = int

let hop_bits = 31
let token ~hop ~traversed = (traversed lsl hop_bits) lor hop
let hop tok = tok land ((1 lsl hop_bits) - 1)
let traversed tok = tok lsr hop_bits
let announce_token = 0

let pp_token ppf tok =
  if tok = announce_token then Format.pp_print_string ppf "<announce>"
  else Election.pp_message ppf (hop tok)

module Net = Network.Make (struct
    type state = Election.state
    type message = token

    let pp_state = Election.pp_state
    let pp_message = pp_token
  end)

(* Forwarding rule selector, for demonstrating that the oracle catches the
   historical [max d hop + 1] bug (see test_runner). *)
type forwarding =
  | Paper      (* forward hop + 1: the counter counts links traversed *)
  | Stale_max  (* seeded mutation: forward min n (max d hop + 1), letting a
                  stale watermark inflate the counter without traversal *)
  | Drop_token (* seeded liveness mutation: silently drop any token that has
                  already traversed >= 2 links instead of forwarding it — no
                  token can circle the ring, so (for n >= 3) no schedule ever
                  elects while ticks keep the run alive forever *)

type counters = {
  mutable activations : int;
  mutable knockouts : int;
  mutable purges : int;
  mutable elected_at : float;
  mutable leader : int option;
  mutable elections : int;
  mutable announce_messages : int;
  mutable informed_at : float;
  mutable activation_times : float array;  (* growable; [activations]
                                             entries are in use *)
  mutable mass_samples : (float * int * int) list;
  mutable phase_transitions : (float * int * Election.phase) list;
}

(* Pre-resolved metric handles for the election layer (see Network for
   the net/engine ones). *)
type instruments = {
  m_activations : Abe_sim.Metrics.counter;
  m_knockouts : Abe_sim.Metrics.counter;
  m_purges : Abe_sim.Metrics.counter;
  m_token_hops : Abe_sim.Metrics.histogram;
  m_activation_time : Abe_sim.Metrics.histogram;
  m_live_tokens : Abe_sim.Metrics.histogram;
  m_elected_at : Abe_sim.Metrics.gauge;
  m_hops_at_election : Abe_sim.Metrics.gauge;
}

let instruments_of m =
  let open Abe_sim.Metrics in
  { m_activations = counter m "election/activations";
    m_knockouts = counter m "election/knockouts";
    m_purges = counter m "election/purges";
    m_token_hops = histogram m "election/token_hops";
    m_activation_time = histogram m "election/activation_time";
    m_live_tokens = histogram m "election/live_tokens";
    m_elected_at = gauge m "election/elected_at";
    m_hops_at_election = gauge m "election/hops_at_election" }

(* 62-bit avalanche mixer (a splitmix64-style finalizer truncated to the
   native int width): each absorbed value is diffused through two
   xor-shift-multiply rounds, so structurally close states — which the old
   multiply-add rolled into colliding low bits — land on digests differing
   in about half their bits.  Exploration keys schedule pruning on these
   digests, so collision resistance directly bounds wrongly-merged
   states. *)
let mix h v =
  let z = (h lxor v) * 0x9E3779B97F4A7C1 land max_int in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D land max_int in
  z lxor (z lsr 32)

(* Both the paper's algorithm and the naive ablation differ only in the
   activation coin, so share the wiring and take the coin as an input.
   The coin answers only whether an idle node activates; the handler
   builds the active state itself, so a tick that changes nothing (almost
   all of them) allocates no result. *)
let run_with ~activates ?trace ?metrics ?scheduler ?causal ?(check = false)
    ?(forwarding = Paper) ?(wall_deadline = infinity) ?(announce = false)
    ~seed config =
  let counters =
    { activations = 0;
      knockouts = 0;
      purges = 0;
      elected_at = nan;
      leader = None;
      elections = 0;
      announce_messages = 0;
      informed_at = nan;
      activation_times = [||];
      mass_samples = [];
      phase_transitions = [] }
  in
  let oracle = if check then Some (Abe_sim.Oracle.create ()) else None in
  (* Under a reordering scheduler the monitor's clock-rate checks are
     disabled: they measure real-time gaps between tick *executions*, and a
     legal reordering shifts executions within the commutation window,
     which would trip the (exact, float-rounding-only) drift tolerance
     spuriously.  Logical invariants — conservation, FIFO, hop soundness,
     unique leader — are exactly what schedule exploration is for and stay
     on. *)
  let topology = Topology.ring config.n in
  (* A fault with rejoins or link outages rewrites the topology over time:
     the monitor's invariants switch to the Dynamic class (accounting only
     — the ring is expected to break and heal).  Everything else, crashes
     included, stays in the Static class. *)
  let dynamic_fault =
    config.fault.Faults.revivals <> [] || config.fault.Faults.link_downs <> []
  in
  let monitor =
    Option.map
      (fun oracle ->
         let clock =
           match scheduler with
           | None -> Some config.params.Params.clock
           | Some _ -> None
         in
         let dynamic = if dynamic_fault then Monitor.Dynamic else Monitor.Static in
         Monitor.create ~oracle ?clock ~fifo:false ~dynamic ~topology
           ~nodes:config.n ~links:config.n ())
      oracle
  in
  let instruments = Option.map instruments_of metrics in
  (* Metric updates run as [match instruments with ...] at each site, and
     the oracle and causal hooks likewise: a closure handed to [Option.iter]
     would be allocated on every call, with or without a sink. *)
  let announce_counter =
    match metrics with
    | Some m when announce ->
      Some (Abe_sim.Metrics.counter m "announce/messages")
    | _ -> None
  in
  (* A fault scenario whose generation cap bound is simulating a calmer
     network than requested; surface the drop count where dashboards can
     see it. *)
  (match metrics with
   | Some registry when config.fault.Faults.truncated > 0 ->
     Abe_sim.Metrics.incr ~by:config.fault.Faults.truncated
       (Abe_sim.Metrics.counter registry "faults/episodes_truncated")
   | _ -> ());
  (* Phase transitions as causal marks: instantaneous annotations attached
     to the handler span in which they happened. *)
  let cmark ~node ~time label =
    match causal with
    | None -> ()
    | Some c -> Abe_sim.Causal.mark c ~node ~time label
  in
  (* Tokens in circulation: born at activation, absorbed at purge or
     election (forwarding keeps the token alive). *)
  let live_tokens () =
    counters.activations - counters.purges - counters.elections
  in
  (* Shadow copy of all node states, to sample the ring-wide wake-up mass
     Σ d over non-passive nodes whenever the phase distribution changes. *)
  let shadow = Array.make config.n Election.initial in
  (* Which nodes have seen the announcement; allocated only when
     announcing. *)
  let informed = Array.make (if announce then config.n else 0) false in
  (* In-flight token multiset for the exploration digest: an
     order-independent sum of per-message keys (destination, hop), added
     at send and subtracted at delivery, so two schedule prefixes only
     share a digest when the same tokens are in the air.  Maintained only
     under a scheduler (the digest is never consulted otherwise); message
     drops (loss, crash, link outage) are not subtracted — those runs mix
     the drop counters into the digest instead, which separates them from
     any lossless prefix. *)
  let track_inflight = scheduler <> None in
  let inflight_hash = ref 0 in
  let token_key dst hop = mix 0x5DEECE66D ((dst * 8_191) + hop) in
  let note_send dst hop =
    if track_inflight then
      inflight_hash := (!inflight_hash + token_key dst hop) land max_int
  in
  let note_recv dst hop =
    if track_inflight then
      inflight_hash := (!inflight_hash - token_key dst hop) land max_int
  in
  let successor node = if node + 1 = config.n then 0 else node + 1 in
  let record_phase time node before after =
    if config.record_phases && before.Election.phase <> after.Election.phase
    then
      counters.phase_transitions <-
        (time, node, after.Election.phase) :: counters.phase_transitions
  in
  (* Each sample walks the whole shadow ring, and samples are taken per
     knockout/purge — O(n^2) over an election, which is why huge-ring
     benchmarks opt out via [record_mass = false]. *)
  let sample_mass_now time =
    let sum_d = ref 0 and non_passive = ref 0 in
    for i = 0 to config.n - 1 do
      let st = shadow.(i) in
      match st.Election.phase with
      | Election.Idle | Election.Active ->
        sum_d := !sum_d + st.Election.d;
        incr non_passive
      | Election.Passive | Election.Leader -> ()
    done;
    counters.mass_samples <- (time, !sum_d, !non_passive) :: counters.mass_samples
  in
  let sample_mass time = if config.record_mass then sample_mass_now time in
  (* Election-layer reaction to crash and revive events, one sink among
     the others (sinks stay pure probes — none draws randomness or
     schedules anything except the stall stop below):

     - [Revive]: the node rejoined with its protocol state reset, so the
       shadow ring (mass sampling, digests) must reset with it;
     - [Crash] of a node with no scheduled rejoin, before any election: on
       a unidirectional ring the election token must traverse {e every}
       link, so a permanently dead node makes election impossible — stop
       the run with a structured reason instead of burning the whole time
       budget on an election that can never complete. *)
  let stall = ref None in
  let stop_engine = ref (fun () -> ()) in
  let revivable =
    List.fold_left
      (fun acc (node, _) -> if List.mem node acc then acc else node :: acc)
      [] config.fault.Faults.revivals
  in
  let all_crashes = config.crash_times @ config.fault.Faults.crashes in
  (* Without a crash there is no Crash event, and no Revive either. *)
  let crash_observer ~time ~stats:_ ~in_flight:_ = function
    | Network.Revive { node } ->
      let before = shadow.(node) in
      shadow.(node) <- Election.initial;
      if announce then informed.(node) <- false;
      record_phase time node before Election.initial
    | Network.Crash { node } ->
      if
        counters.elections = 0
        && (not (List.mem node revivable))
        && !stall = None
      then begin
        stall :=
          Some
            (Printf.sprintf
               "node %d crashed with no rejoin at t=%g: ring election cannot \
                complete" node time);
        !stop_engine ()
      end
    | _ -> ()
  in
  let observer =
    Sinks.compose
      [ Option.map (fun m -> Sinks.metrics m ~links:config.n) metrics;
        Option.map (fun tr -> Sinks.trace tr ~pp:pp_token) trace;
        Option.map Monitor.observer monitor;
        (if all_crashes = [] then None else Some crash_observer) ]
  in
  let send_announce ctx =
    counters.announce_messages <- counters.announce_messages + 1;
    Option.iter Abe_sim.Metrics.incr announce_counter;
    ctx.Net.send 0 announce_token
  in
  (* The announcement lap: every node records the result and forwards it;
     its return to the leader informs the whole ring and halts the run. *)
  let on_announce ctx st =
    informed.(ctx.Net.node) <- true;
    if st.Election.phase = Election.Leader then begin
      let time = ctx.Net.now () in
      counters.informed_at <- time;
      cmark ~node:ctx.Net.node ~time "informed";
      ctx.Net.stop ()
    end
    else send_announce ctx;
    st
  in
  let on_token ctx st tok =
    let time = ctx.Net.now () in
    let hop = hop tok and traversed = traversed tok in
    note_recv ctx.Net.node hop;
    (match oracle with
     | Some o when hop <> traversed ->
       Abe_sim.Oracle.reportf o ~time ~invariant:"hop-soundness"
         ~subject:(Printf.sprintf "node %d" ctx.Net.node)
         "token hop %d but traversed %d links" hop traversed
     | Some _ | None -> ());
    (match instruments with
     | None -> ()
     | Some i -> Abe_sim.Metrics.observe i.m_token_hops (float_of_int hop));
    let st', reaction = Election.receive ~n:config.n st hop in
    shadow.(ctx.Net.node) <- st';
    record_phase time ctx.Net.node st st';
    (match reaction with
     | Election.Forward hop' ->
       if st.Election.phase = Election.Idle then begin
         counters.knockouts <- counters.knockouts + 1;
         (match instruments with
          | None -> ()
          | Some i -> Abe_sim.Metrics.incr i.m_knockouts);
         cmark ~node:ctx.Net.node ~time "knockout";
         sample_mass time
       end;
       (match forwarding with
        | Drop_token when traversed >= 2 ->
          (* Seeded liveness bug: the token dies here instead of
             continuing around the ring. *)
          ()
        | Paper | Stale_max | Drop_token ->
          let out_hop =
            match forwarding with
            | Paper | Drop_token -> hop'
            | Stale_max -> min config.n (st'.Election.d + 1)
          in
          ctx.Net.send 0 (token ~hop:out_hop ~traversed:(traversed + 1));
          note_send (successor ctx.Net.node) out_hop)
     | Election.Purge ->
       counters.purges <- counters.purges + 1;
       (match instruments with
        | None -> ()
        | Some i ->
          Abe_sim.Metrics.incr i.m_purges;
          Abe_sim.Metrics.observe i.m_live_tokens
            (float_of_int (live_tokens ())));
       cmark ~node:ctx.Net.node ~time "purge";
       sample_mass time
     | Election.Elected ->
       counters.elections <- counters.elections + 1;
       (match instruments with
        | None -> ()
        | Some i ->
          Abe_sim.Metrics.set_gauge i.m_elected_at time;
          Abe_sim.Metrics.set_gauge i.m_hops_at_election
            (float_of_int traversed));
       Option.iter
         (fun o ->
            if traversed <> config.n then
              Abe_sim.Oracle.reportf o ~time
                ~invariant:"election-soundness"
                ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                "elected by a token that traversed %d of %d links"
                traversed config.n;
            if counters.elections > 1 then
              Abe_sim.Oracle.reportf o ~time ~invariant:"unique-leader"
                ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                "election #%d in one run" counters.elections)
         oracle;
       counters.elected_at <- time;
       counters.leader <- Some ctx.Net.node;
       cmark ~node:ctx.Net.node ~time "elected";
       (* The electing delivery's handler span is the critical-path
          sink: its completion is the elected-at instant. *)
       Option.iter Abe_sim.Causal.set_sink causal;
       sample_mass time;
       (* Announcing, the leader starts the lap instead of halting. *)
       if announce then send_announce ctx else ctx.Net.stop ());
    st'
  in
  let handlers : Net.handlers =
    { init = (fun _ctx -> Election.initial);
      on_tick =
        (fun ctx st ->
           (* A tick that does not activate leaves the state — and so its
              shadow copy — as it was. *)
           if not (activates ~rng:ctx.Net.rng st) then st
           else begin
             let st' = { st with Election.phase = Election.Active } in
             let time = ctx.Net.now () in
             shadow.(ctx.Net.node) <- st';
             record_phase time ctx.Net.node st st';
             let k = counters.activations in
             if k = Array.length counters.activation_times then begin
               let grown = Array.make (max 8 (2 * k)) 0. in
               Array.blit counters.activation_times 0 grown 0 k;
               counters.activation_times <- grown
             end;
             counters.activation_times.(k) <- time;
             counters.activations <- k + 1;
             cmark ~node:ctx.Net.node ~time "activate";
             (match instruments with
              | None -> ()
              | Some i ->
                Abe_sim.Metrics.incr i.m_activations;
                Abe_sim.Metrics.observe i.m_activation_time time;
                Abe_sim.Metrics.observe i.m_live_tokens
                  (float_of_int (live_tokens ())));
             (* A fresh token starts with hop counter 1, and will have
                traversed exactly one link when it first arrives. *)
             ctx.Net.send 0 (token ~hop:1 ~traversed:1);
             note_send (successor ctx.Net.node) 1;
             st'
           end);
      on_message =
        (fun ctx st tok ->
           if tok = announce_token then on_announce ctx st
           else on_token ctx st tok) }
  in
  let base_delay_of_link =
    match config.link_delays with
    | None -> fun _ -> config.delay
    (* On [Topology.ring n] the link out of node i has id i. *)
    | Some models -> fun link -> models.(link.Topology.id)
  in
  let net_config =
    { (Net.default_config ~topology ~delay:config.delay)
      with
      proc_delay = config.proc_delay;
      clock_spec = config.params.Params.clock;
      crash_times = all_crashes;
      revive_times = config.fault.Faults.revivals;
      link_downs = config.fault.Faults.link_downs;
      loss_schedule = config.fault.Faults.loss_schedule;
      delay_of_link =
        (fun link -> Faults.apply_delay config.fault (base_delay_of_link link)) }
  in
  let net =
    Net.create ?metrics ?scheduler ?causal ?observer
      ~limit_time:config.limit_time ~limit_events:config.limit_events
      ~wall_deadline ~seed net_config handlers
  in
  (stop_engine := fun () -> Abe_sim.Engine.stop (Net.engine net));
  (* State digest for exploration-time pruning: a 62-bit avalanche hash of
     the canonical state — per-node phase and watermark, the election
     counters, the network's conservation counters (drop classes
     included), and the in-flight token multiset.  Two schedule prefixes
     that reconverge to the same digest head identical residual state
     spaces (up to in-flight timing), so an explorer can prune one. *)
  if scheduler <> None then begin
    Abe_sim.Engine.set_digest_source (Net.engine net) (fun () ->
        let h = ref 0x3C79AC492BA7B653 in
        Array.iter
          (fun st ->
             let phase =
               match st.Election.phase with
               | Election.Idle -> 0
               | Election.Active -> 1
               | Election.Passive -> 2
               | Election.Leader -> 3
             in
             h := mix !h ((st.Election.d * 4) + phase))
          shadow;
        h := mix !h counters.activations;
        h := mix !h counters.knockouts;
        h := mix !h counters.purges;
        h := mix !h counters.elections;
        let stats = Net.stats net in
        h := mix !h stats.Network.sent;
        h := mix !h stats.Network.delivered;
        h := mix !h stats.Network.lost;
        h := mix !h stats.Network.crashed_drops;
        h := mix !h stats.Network.link_drops;
        h := mix !h (Net.in_flight net);
        h := mix !h !inflight_hash;
        !h)
  end;
  let engine_outcome = Net.run net in
  let states = Net.states net in
  let leader_count =
    Array.fold_left
      (fun acc st ->
         if st.Election.phase = Election.Leader then acc + 1 else acc)
      0 states
  in
  let violations =
    match oracle, monitor with
    | Some o, Some m ->
      let time = Net.now net in
      if leader_count > 1 then
        Abe_sim.Oracle.reportf o ~time ~invariant:"unique-leader"
          ~subject:"ring" "%d nodes in the leader phase" leader_count;
      Monitor.check_quiescence m ~time ~outcome:engine_outcome
        ~in_flight:(Net.in_flight net);
      Abe_sim.Oracle.violations o
    | _ -> []
  in
  let stats = Net.stats net in
  let engine_counters = Net.counters net in
  { elected = Option.is_some counters.leader;
    leader = counters.leader;
    leader_count;
    elected_at = counters.elected_at;
    messages = stats.Network.sent - counters.announce_messages;
    activations = counters.activations;
    knockouts = counters.knockouts;
    purges = counters.purges;
    ticks = stats.Network.ticks;
    activation_times = Array.sub counters.activation_times 0 counters.activations;
    mass_samples = Array.of_list (List.rev counters.mass_samples);
    phase_transitions = Array.of_list (List.rev counters.phase_transitions);
    executed_events = engine_counters.Abe_sim.Engine.executed;
    max_queue_depth = engine_counters.Abe_sim.Engine.max_queue_depth;
    wall_time = engine_counters.Abe_sim.Engine.wall_time;
    engine_outcome;
    violations;
    stalled = !stall;
    announce =
      (if announce then
         Some
           { announce_messages = counters.announce_messages;
             all_informed = Array.for_all Fun.id informed;
             informed_at = counters.informed_at }
       else None) }

let run ?trace ?metrics ?scheduler ?causal ?check ?forwarding ?wall_deadline
    ?announce ~seed config =
  let coin = Election.coin ~a0:config.a0 ~n:config.n in
  run_with ?trace ?metrics ?scheduler ?causal ?check ?forwarding ?wall_deadline
    ?announce ~seed config
    ~activates:(fun ~rng st -> Election.coin_activates coin ~rng st)

(* Ablation: constant activation probability, ignoring d. *)
let run_naive ?trace ?metrics ?scheduler ?causal ?check ?forwarding
    ?wall_deadline ~seed config =
  run_with ?trace ?metrics ?scheduler ?causal ?check ?forwarding ?wall_deadline
    ~seed config
    ~activates:(fun ~rng st ->
        match st.Election.phase with
        | Election.Idle -> Rng.bernoulli rng config.a0
        | Election.Active | Election.Passive | Election.Leader -> false)

let pp_outcome ppf o =
  Fmt.pf ppf
    "elected=%b leader=%a time=%.3f messages=%d activations=%d knockouts=%d \
     purges=%d ticks=%d"
    o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.elected_at o.messages o.activations o.knockouts o.purges o.ticks;
  (* Appended only when a stall was detected, so every non-stalled outcome
     renders byte-identically to earlier releases. *)
  Option.iter (Fmt.pf ppf " stalled=%S") o.stalled;
  Option.iter
    (fun (a : announce) ->
       Fmt.pf ppf " | announce=%d all_informed=%b informed_at=%.3f"
         a.announce_messages a.all_informed a.informed_at)
    o.announce
