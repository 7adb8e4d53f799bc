(** Bounded depth-first exploration with visited-set pruning.

    States are pruned at decision points using their canonical
    encoding: once a decision state has been expanded, every later
    path reaching it is cut, which is sound because the continuation
    from a decision state depends only on the state.  The visited set
    ({!Visited}, one per search) keys a state by the vector of its
    clock residue and the interned indices of its canonical components
    — one per task, one for the object arrays, one for the IRQ slots —
    so equal vectors mean equal {!State.key}s, and a hash collision
    never merges two states.
    The search stacks each child as its parent decision state, the
    parent's index vector and the choice to commit, so a child state
    is copied once, when it is expanded, and its vector reuses the
    parent's index for every component that cannot have changed.
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
  completed : int array;
      (** job completions per task (indexed like [Machine.tasks]),
          across all paths *)
  max_response : int array;
      (** worst observed response per task (indexed like
          [Machine.tasks]); 0 for a task with no completed job, which
          observed nothing.  With [`Ok], [truncated = false] and
          partial-order reduction off, these are exhaustive worst cases
          over every admissible schedule within the horizon — the
          numbers the RTA cross-check compares against analytical
          bounds.  With the reduction on they may be lower, since the
          merged tie orders differ in the tied tasks' responses. *)
}

val check :
  ?por:bool ->
  ?seed:int ->
  ?lesion:Step.lesion ->
  props:Props.t list ->
  bounds:bounds ->
  Machine.t ->
  result
(** Explore.  [por] (default true) enables the tie reduction; it is
    forced off whenever a selected property is
    {!Props.timing_sensitive}, since the reduction deliberately drops
    schedules that differ only in timing.  A caller that reads
    [max_response] passes [~por:false] for the same reason.

    [seed] shuffles the order in which each branch's children are
    explored (default: the machine's deterministic enumeration order).
    When no bound truncates the search, the visited-set pruning makes
    the explored state space — and the verdict — independent of the
    order; what varies reproducibly is the search path, hence which of
    several violating traces is reported and how many expansions a
    violating run needs before finding it.  A bound that truncates the
    search cuts it at an order-dependent place, so then the explored
    states, the counts, the worst responses and the verdict may differ
    between seeds.

    [lesion] weakens the transition relation ({!Step.lesion}); it
    exists to show that the properties can fail. *)
