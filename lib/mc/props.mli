(** Pluggable checked properties.

    A property inspects either states (probed after every micro-step)
    or notes (emitted by the transition relation as they happen); the
    first failure aborts exploration with a counterexample.

    Each state check declares the {!State.parts} it reads, and is a
    pure function of them.  A probe is told the {!State.scope} written
    since the previous probe passed: it runs only the checks that read
    a written part, and each of those visits only the tasks and
    objects whose answer the writes can have moved.  Everything else
    gives the answer it gave then, so the first failing property and
    its message are those of the full check. *)

type check
(** One state check, with the parts it reads. *)

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
    {!State.switch}; the semaphore, mailbox and
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
  changed:State.scope ->
  State.t ->
  (string * string) option
(** First failing property on a state, as [(name, message)].  Exact
    when the previous call passed on a state that differs from this
    one only within [changed]: its parts, the tasks of its task set
    and the objects of its object sets ({!State.scope}), and when
    [changed.cyclic] is what that call left there.  The checks:
    - deadlock: walks only from the new edges of the blocked-on graph
      (a written task blocked on a semaphore, the holder of a written
      semaphore);
    - pi: the written tasks, the tasks whose held lists name a
      written semaphore, and every task up their blocked-on chains,
      lowest index first;
    - the runner count: only when a written task is now running;
    - the semaphore, mailbox and wait-queue checks: the written
      objects and the semaphores written tasks hold, with one pass
      over the tasks for the waiters they need;
    - the pc and burst check: the written tasks;
    - mem: the written pools.
    After a state with a circular wait, which passes [pi] without
    [deadlock], the cycle search and [pi] take every task.
    {!State.everything} asks for every check on every task and object.

    Applied to the properties and the machine, it compiles their
    checks into one table and builds the probe that every state it is
    then given reuses: apply it once per search.  A probe records
    whether the state has a circular wait in [changed.cyclic] when it
    looks, and keeps nothing else between calls.  It allocates nothing
    while the state passes; messages are formatted only on failure. *)

val check_state :
  t list -> Machine.t -> State.t -> (string * string) option
(** The full check: {!check_changed} told every part, task and
    object. *)

val check_note :
  t list -> Machine.t -> at:int -> State.note -> (string * string) option
