(** Sinks over the network's event stream (see {!Network.event}).

    Each sink is a {!Network.observer}: a fold over the events that keeps
    its own state and never perturbs the run.  {!compose} joins any number
    of them, {!Monitor.observer} included, into the one observer a network
    takes. *)

val metrics : Abe_sim.Metrics.t -> links:int -> 'm Network.observer
(** Records the ["net/*"] rows into the registry: counters ["net/sent"],
    ["net/delivered"], ["net/lost"], ["net/crashed_drops"],
    ["net/link_drops"] and ["net/ticks"]; histograms ["net/latency"] (the
    [latency] of every {!Network.Arrive}, all links) and
    ["net/link/NNNN/latency"] for each of the [links] link ids; and
    ["net/in_flight"], the in-flight count after every send, delivery and
    drop.  Every row is registered when the sink is made, so links that
    carry no message still show an empty histogram. *)

val trace :
  Abe_sim.Trace.t -> pp:(Format.formatter -> 'm -> unit) -> 'm Network.observer
(** Records one entry per [Send] (kind ["send"], source the sending node),
    [Deliver] (["recv"], the receiving node), [Loss] (["loss"], the link)
    and [Link_drop] (["link-drop"], the link), with the message printed by
    [pp] as its payload.  Ticks, arrivals and crash drops leave no
    entry. *)

val compose : 'm Network.observer option list -> 'm Network.observer option
(** One observer calling each given observer in list order; [None] when
    none is given, so a network with no sink keeps its no-observer fast
    path. *)
