(** The paper's leader-election algorithm for anonymous, unidirectional ABE
    rings of known size [n] (Section 3).

    Every node is in one of four phases and stores a hop-count watermark
    [d >= 1] (initially 1).  Messages are bare hop counters.

    - An {e idle} node, at every local clock tick, becomes {e active} with
      probability [1 - (1 - a0) ** d] and then sends [<1>] to its
      successor.
    - On receiving [<hop>], a node first raises [d] to [max d hop] — the
      watermark only feeds the activation probability, never the forwarded
      counter; then
      {ul
      {- idle: if [hop = n] the token is an orphan that circumnavigated
         after its origin was knocked out — purge it (and stay idle);
         otherwise become {e passive} and forward [<hop + 1>];}
      {- passive: purge an orphan [hop = n] token, otherwise forward
         [<hop + 1>];}
      {- active: if [hop = n] the message is the node's own token that
         circumnavigated the ring — become {e leader}; otherwise two
         concurrent tokens collided — purge the message and fall back to
         {e idle};}
      {- leader: ignore (cannot happen in a well-formed execution).}}

    The forwarded counter is always [hop + 1], so a token's hop count
    equals the links it has traversed — the {e hop-soundness} invariant
    the runner's oracle checks.  (An earlier version forwarded
    [max d hop + 1], which let a stale watermark teleport a token's count
    to [n] without circumnavigation: a false-leader path.)

    Since [d - 1] counts known-passive predecessors, the wake-up probability
    [1 - (1-a0)^d] keeps the {e aggregate} activation rate of the ring
    roughly constant as nodes get knocked out — the key to linear average
    time and message complexity.

    The entry points are {!coin_activates}, the clock-tick decision (one
    draw from the caller's stream; its only other effect is the coin's
    memo fill), and {!receive}, a side-effect-free message transition;
    both are directly testable.  The one wiring of them into a ring lives
    in {!Runner}; the real backend ([Abe_substrate.Elect_real]) flips the
    same coin and sends Runner's packed token. *)

type phase = Idle | Active | Passive | Leader

type state = {
  phase : phase;
  d : int;  (** highest hop count seen, >= 1 *)
}

type message = int
(** A hop counter in [1 .. n]. *)

(** Reaction of a node to an incoming message. *)
type reaction =
  | Forward of message  (** pass [<hop + 1>] to the successor *)
  | Purge               (** swallow the message (collision or orphan) *)
  | Elected             (** own token returned: leader *)

val initial : state
(** [{ phase = Idle; d = 1 }]. *)

val activation_probability : a0:float -> d:int -> float
(** [1. -. (1. -. a0) ** d].  Requires [a0] in [(0,1)] and [d >= 1]. *)

type coin
(** A per-run memo of {!activation_probability} for one [a0] and
    [d] in [1 .. n].  Entry [d] is computed by {!activation_probability}
    the first time it is needed, so creating a coin computes nothing. *)

val coin : a0:float -> n:int -> coin

val coin_probability : coin -> d:int -> float
(** Entry [d], filled on first use: bitwise
    [activation_probability ~a0 ~d]. *)

val coin_activates : coin -> rng:Abe_prob.Rng.t -> state -> bool
(** The coin of one clock tick: [true] when an idle node activates.  An
    idle node draws once from [rng] against entry [d]; other phases draw
    nothing and give [false].  A coin whose entries are all filled (see
    {!coin_probability}) is only read, so concurrent workers may share
    it. *)

val tick_decision : a0:float -> rng:Abe_prob.Rng.t -> state -> state * bool
(** One clock tick without a coin: an idle node draws once against
    [activation_probability ~a0 ~d], exactly as {!coin_activates} does,
    and on success becomes active and must send [<1>] ([true] in the
    result).  Non-idle nodes are unchanged ([false]).  Kept for the
    per-tick cost probe; both backends flip a {!coin}. *)

val receive : n:int -> state -> message -> state * reaction
(** One message receipt, per the case analysis above.  Requires [n >= 2] and
    [1 <= hop <= n]. *)

val pp_phase : Format.formatter -> phase -> unit
val pp_state : Format.formatter -> state -> unit
val pp_message : Format.formatter -> message -> unit
