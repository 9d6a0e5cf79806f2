(** The per-link message law of an ABE network, shared by both backends.

    Definition 1 bounds the {e expected} delay of every link by δ; the
    lossy channel of Section 1(iii) is the case of an unbounded delay with
    expected value [1/p].  This module is the only owner of three decisions
    that {!Network} and the real-process router must make identically:

    - {b the RNG stream split} from the master seed: one delay stream per
      link (link-id order), then a (handler, clock) pair per node
      (node-id order), then — only when the network can lose messages —
      one loss stream per link.  The loss block is last, so skipping it
      shifts no other stream.  New streams must only ever be appended, or
      every seeded result shifts;
    - {b delay-model validation} of every link;
    - {b the draw}: the delay first, from the link's delay stream; then
      the down-link check, which consumes no loss draw; then the loss
      Bernoulli, from the link's loss stream.  Delays are thus drawn
      unconditionally, so the delays of delivered messages are the same
      whether or not loss is enabled or links go down.

    FIFO adjustment and time-varying loss schedules belong to the caller,
    which passes the loss probability into {!draw}. *)

type t

type outcome =
  | Arrive  (** the message is in flight until the arrival time *)
  | Lost    (** dropped by the loss Bernoulli *)
  | Down    (** the link is down; no loss draw was consumed *)

val create :
  seed:int ->
  Topology.t ->
  delay_of_link:(Topology.link -> Delay_model.t) ->
  lossy:bool ->
  node:(int -> rng:Abe_prob.Rng.t -> clock:Abe_prob.Rng.t -> 'a) ->
  (t * 'a array, string) result
(** Validate every link's delay model ({!Delay_model.validate}; a model
    physically equal to the last one validated is not re-checked), then split
    the streams in the canonical order.  [node id ~rng ~clock] receives
    node [id]'s handler and clock streams, in node-id order, and its
    results are returned by node id.  [lossy = false] skips the loss
    block; {!draw} then requires [loss = 0.].  An invalid model gives
    [Error "link <id>: <reason>"] before any stream is split.  Every link
    starts up. *)

val draw : t -> link:int -> now:float -> loss:float -> float array -> outcome
(** [draw t ~link ~now ~loss out] samples the fate of one message sent on
    link [link] at time [now] with loss probability [loss] (in
    [\[0,1\]]).  Whatever the outcome, [out.(0)] receives the arrival
    time [now + delay] and [out.(1)] the delay, so no float is boxed on
    the way out; [out] must have length at least 2. *)

val is_up : t -> int -> bool
val set_up : t -> int -> bool -> unit
(** Topology membership of a link now; a down link's draws give [Down]. *)
