(** Pluggable replication drivers.

    A driver decides {e how} a batch of independent tasks (typically one
    simulation per seed) is executed: {!Sequential} runs them in order on
    the calling domain, {!Parallel} fans them out over OCaml 5 domains
    ([Domain.spawn]) that claim tasks one at a time from a shared counter.

    Determinism guarantee: for any driver, [map driver f items] returns
    exactly [List.map f items] — same results, same ordering — provided [f]
    is deterministic and the tasks share no mutable state.  Replicated
    simulations satisfy this by construction (each replicate owns its own
    [Rng] stream and [Engine] instance), so parallel runs are byte-identical
    to sequential ones; only wall-clock time changes. *)

type t =
  | Sequential
  | Parallel of { num_domains : int }

val sequential : t

val parallel : ?num_domains:int -> unit -> t
(** [num_domains] defaults to [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [num_domains < 1]. *)

val of_jobs : int -> t
(** [of_jobs 1] is {!Sequential}; [of_jobs k] for [k > 1] is
    [Parallel {num_domains = k}].  This is the CLI [--jobs N] mapping.
    @raise Invalid_argument if [jobs < 1]. *)

val num_domains : t -> int
(** Worker count: 1 for {!Sequential}. *)

val pp : Format.formatter -> t -> unit

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map driver f items] computes [List.map f items].  With [Parallel],
    [num_domains - 1] domains are spawned for the call and, together with
    the calling domain, claim items dynamically: each worker takes the
    next unclaimed index from one atomic counter, so a domain that drew
    cheap tasks keeps working while another finishes an expensive one.
    Each result is written to its item's slot, so the output is in input
    order and independent of scheduling.  If [f] raises, the exception
    from the lowest failing index — the one [List.map f items] would
    raise — is re-raised in the caller, after every spawned domain has
    been joined; items past that index may or may not have been run. *)

(** Wall-clock accounting for one [map] batch. *)
type timing = {
  driver : t;
  tasks : int;
  elapsed : float;  (** wall-clock seconds for the whole batch *)
}

val timed_map : t -> ('a -> 'b) -> 'a list -> 'b list * timing
(** {!map} plus wall-clock timing of the batch. *)
