(** The paper's ring election on the real-process substrate.

    Drives the {e same} pure {!Abe_core.Election} transition functions the
    simulator's {!Abe_core.Runner} wires up — nothing protocol-side changes
    to run on sockets.  Ticks flip the runner's activation coin
    ({!Abe_core.Election.coin_activates}), tokens travel as the runner's
    packed {!Abe_core.Runner.token} in one 8-byte payload, the
    unidirectional ring is the topology, and the reactions map exactly as
    in the runner: [Forward] sends [hop + 1] on the single out-link,
    [Purge] swallows, [Elected] requests global stop, making the stopping
    node the leader and the stop instant [elected_at].

    Fidelity caveats (see DESIGN.md §6i): processing time is not emulated
    ([gamma] must be 0) and [elected_at] is wall-clock elapsed divided by
    [scale], so OS scheduling jitter adds to it — parity with the
    simulator is distributional, not per-seed. *)

type config = private {
  n : int;
  a0 : float;
  params : Abe_core.Params.t;
  delay : Abe_net.Delay_model.t;
  loss_probability : float;
  scale : float;
  wall_timeout : float;
  spawn_mode : Cluster.spawn_mode;
}

val config :
  ?a0:float ->
  ?params:Abe_core.Params.t ->
  ?delay:Abe_net.Delay_model.t ->
  ?loss_probability:float ->
  ?scale:float ->
  ?wall_timeout:float ->
  ?spawn_mode:Cluster.spawn_mode ->
  n:int ->
  unit ->
  config
(** Validated constructor: [n], [a0], [params] and [delay] go through
    {!Abe_core.Runner.config} (same defaults, same checks: [n >= 2], [a0]
    in (0,1), the delay model admissible for [params]), then the
    substrate restriction [params.gamma = 0].  Raises
    [Invalid_argument]. *)

type outcome = {
  elected : bool;
  leader : int option;
  elected_at : float;  (** simulated-time units; [nan] when not elected *)
  messages : int;      (** tokens sent, from per-worker reports *)
  activations : int;
  ticks : int;
  delivered : int;
  lost : int;
  wall_time : float;   (** wall seconds for the whole run *)
  stats_missing : int;
  fidelity : Telemetry.Fidelity.summary;
      (** per-link delay-emulation fidelity (always recorded) *)
}

val run :
  ?metrics:Abe_sim.Metrics.t ->
  ?telemetry:Telemetry.Collector.t ->
  ?snapshots:Telemetry.Snapshot.t ->
  seed:int ->
  config ->
  (outcome, string) result
(** One real election: spawn the cluster, run to election or wall timeout,
    shut down cleanly.  Composes with [Exp.replicate] as
    [fun ~seed -> Elect_real.run ~seed config].  With [telemetry], the
    run's causal span DAG is left in the collector (merge it afterwards);
    with [snapshots], live router state streams as JSONL.  Protocol marks
    ("activate", "knockout", "purge", "elected") ride on the traced spans
    exactly as in the simulator's runner. *)

val pp_outcome : Format.formatter -> outcome -> unit
