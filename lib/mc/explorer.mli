(** Bounded depth-first exploration with visited-set pruning.

    States are pruned at decision points using the canonical encoding
    ({!State.key}): once a decision state has been expanded, every
    later path reaching it is cut, which is sound because the
    continuation from a decision state depends only on the state.  The
    key writes the canonical fields directly into a string (a tag per
    variant, a length per list, a varint per int); the code is
    prefix-free, so equal keys mean equal canonical states, and the
    visited set compares whole keys — a hash collision never merges
    two states.
    Exploration is bounded three ways — virtual-time horizon, total
    expansions, and decisions per path — and reports whether any bound
    actually truncated it, so "no violation" can be read as "none
    within the bounds" rather than a proof beyond them. *)

type bounds = {
  horizon : int;  (** virtual-time bound, ns *)
  max_states : int;  (** total expansions *)
  max_depth : int;  (** decisions along one path *)
}

val default_bounds : Machine.t -> bounds
(** One hyperperiod, 200k expansions, 10k decisions. *)

type result = {
  verdict : [ `Ok | `Violation of Counterexample.t ];
  expansions : int;  (** deterministic segments executed *)
  distinct : int;  (** decision states in the visited set *)
  revisits : int;  (** paths cut by visited pruning *)
  por_skipped : int;  (** choices pruned by partial-order reduction *)
  truncated : bool;  (** some bound cut exploration short *)
  jobs : int;  (** job completions observed across all paths *)
  max_response : int array;
      (** worst observed response per task (indexed like
          [Machine.tasks]); with [`Ok] and [truncated = false] these are
          exhaustive worst cases over every admissible schedule within
          the horizon — the numbers the RTA cross-check compares
          against analytical bounds *)
}

val check :
  ?por:bool ->
  ?seed:int ->
  props:Props.t list ->
  bounds:bounds ->
  Machine.t ->
  result
(** Explore.  [por] (default true) enables the tie reduction; it is
    forced off whenever a selected property is
    {!Props.timing_sensitive}, since the reduction deliberately drops
    schedules that differ only in timing.

    [seed] shuffles the order in which each branch's children are
    explored (default: the machine's deterministic enumeration order).
    The visited-set pruning makes the explored state space — and the
    verdict — independent of the order; what varies reproducibly is
    the search path, hence which of several violating traces is
    reported and how many expansions a violating run needs before
    finding it. *)
