(** Pluggable checked properties.

    A property inspects either states (probed after every micro-step)
    or notes (emitted by the transition relation as they happen); the
    first failure aborts exploration with a counterexample.

    Each state check declares the {!State.parts} it reads, and is a
    pure function of them.  A probe told which parts changed since the
    previous probe passed re-runs only the checks that read one of
    them: an unchanged part gives the answer it gave then, so the
    first failing property and its message are those of the full
    check. *)

type probe
(** The state being probed, with what several properties derive from
    it (the first circular wait) computed at most once per state.  One
    probe serves a whole search; it allocates nothing while the state
    passes. *)

type check
(** One state check of a {!probe}d state, with the parts it reads. *)

type t = {
  name : string;
  doc : string;
  timing_sensitive : bool;
      (** verdict depends on execution-order timing, so the explorer
          must not apply partial-order reduction *)
  on_state : check list;  (** run in order; none for note-only props *)
  on_note : Machine.t -> at:int -> State.note -> string option;
}

val deadlock : t
(** No circular wait: no cycle in the blocked-task → semaphore-holder
    graph.  The message names the tasks on the cycle only.  Reads
    {!State.modes} and {!State.sems}. *)

val pi : t
(** Priority-inheritance correctness: every task's incrementally
    maintained effective rank and effective deadline equal the
    declarative fixpoint — the minimum over itself and the effective
    values of all (transitive) waiters on semaphores it holds.
    Skipped on states that already contain a circular wait (the
    fixpoint is undefined there; {!deadlock} reports those).  Reads
    {!State.modes} and {!State.sems}. *)

val invariants : t
(** Structural kernel invariants on every state: at most one running
    task, semaphore holder/held-list consistency, no waiters on a
    free semaphore, mailbox occupancy within capacity and
    consistent with blocked senders/receivers, program counters in
    range, and no faulting operations (e.g. releasing an un-held
    semaphore).  Three checks, in this order: the runner count reads
    {!State.modes} and {!State.switch}; the semaphore, mailbox and
    wait-queue checks read {!State.modes}, {!State.sems},
    {!State.mailboxes} and {!State.waitqs}; the pc and burst check
    reads {!State.progress}. *)

val tear : t
(** State-message tear-freedom: no read observes [depth - 1] or more
    writes completed between its begin and end — the §7 bound
    [N >= ceil(read/write) + 2] is exactly what makes this
    unreachable.  Notes only. *)

val mem : t
(** Block-pool memory safety: every pool's occupancy stays within
    [0, capacity] and equals the sum of blocks tasks hold (no lost or
    duplicated blocks), no allocation is denied (OOM), and no job
    completes still holding blocks (leak).  Reads {!State.pools} and
    {!State.live}. *)

val deadline : t
(** No deadline miss up to the horizon.  Timing-sensitive; notes
    only. *)

val all : t list
val by_name : string -> t option
val names : string list

val check_changed :
  t list ->
  Machine.t ->
  changed:State.parts ->
  State.t ->
  (string * string) option
(** First failing property on a state, as [(name, message)], running
    only the checks that read a part in [changed].  Exact when the
    previous call passed on a state that differs from this one only
    in [changed]; {!State.all} asks for every check.  Applied to the
    properties and the machine, it builds the one probe that every
    state it is then given reuses: apply it once per search.
    Messages are formatted only on failure. *)

val check_state :
  t list -> Machine.t -> State.t -> (string * string) option
(** The full check: {!check_changed} told that every part changed. *)

val check_note :
  t list -> Machine.t -> at:int -> State.note -> (string * string) option
