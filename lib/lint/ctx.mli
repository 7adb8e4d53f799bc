(** The static-analysis context: everything the verifier knows before a
    single simulated nanosecond runs.

    A context is a task set plus each task's thread program (the same
    [programs] function a kernel is created with) and the declared side
    effects of registered interrupt handlers.  Programs may branch on
    per-job input bits and loop a bounded number of times, so each task
    carries two views: the structured source ([prog]) and the kernel's
    flattened executable form ([code]), a forward-only DAG of
    [Br_input]/[Jump] edges with loops unrolled.  Checks are
    path-sensitive dataflow over that DAG: one forward pass in pc order
    with joins at merge points computes exact must/may facts, because
    every branch target points forward and input bits make every path
    feasible. *)

type task_prog = {
  task : Model.Task.t;
  rank : int;  (** position in the task set's RM order (0 = highest) *)
  prog : Emeralds.Types.instr list;  (** structured source form *)
  code : Emeralds.Types.instr array;  (** flattened executable form *)
}

type t = {
  tasks : task_prog array;  (** in RM-rank order *)
  irq_signals : Emeralds.Types.waitq list;
      (** wait queues some registered IRQ handler may signal *)
  irq_writes : Emeralds.State_msg.t list;
      (** state messages some registered IRQ handler writes *)
}

val make :
  ?irq_signals:Emeralds.Types.waitq list ->
  ?irq_writes:Emeralds.State_msg.t list ->
  taskset:Model.Taskset.t ->
  programs:(Model.Task.t -> Emeralds.Program.t) ->
  unit ->
  t
(** Build a context the same way [Kernel.create] builds TCBs: one
    program per task, tasks in RM order.  IRQ metadata typically comes
    from [Kernel.irq_signals] / [Kernel.irq_state_writes] after handler
    registration, or is declared directly.
    @raise Invalid_argument when a program fails to flatten (see
    {!Emeralds.Program.flatten}). *)

val of_scenario : Workload.Scenario.t -> t
(** [make] over a scenario's task set, programs and IRQ metadata: the
    one context every front end builds from a scenario. *)

val dataflow :
  init:'a ->
  join:('a -> 'a -> 'a) ->
  transfer:(pc:int -> Emeralds.Types.instr -> 'a -> 'a) ->
  task_prog ->
  'a array * 'a
(** Forward dataflow over the flattened DAG.  Returns the in-state of
    every pc (the joined state over all paths reaching it) and the
    program's exit state.  [transfer] never sees [Br_input] or [Jump] —
    both are control-only and propagate their in-state to each
    successor unchanged; [join] combines states at merge points.  A
    single pass in pc order suffices because all edges point forward. *)

(** Held-semaphore multisets at a program point, in acquisition order
    (oldest first; a duplicate is a mutex acquired again while held,
    which lock-balance reports).  [must] holds on every path to the
    point, [may] on at least one. *)
type held = { must : Emeralds.Types.sem list; may : Emeralds.Types.sem list }

val held_join : held -> held -> held
(** Multiset intersection of the [must] parts, union of the [may]
    parts. *)

val count : Emeralds.Types.sem list -> Emeralds.Types.sem -> int
(** Acquisitions of one semaphore inside a held multiset. *)

val drop_latest :
  Emeralds.Types.sem list -> Emeralds.Types.sem -> Emeralds.Types.sem list
(** Drop the most recent acquisition of the semaphore; an unmatched
    release leaves the list unchanged (the lock-balance check reports
    it). *)

val held_walk : task_prog -> held array * held
(** [held_walk tp] runs the held-semaphore dataflow and returns, for
    each pc, the multisets held *before* executing that instruction,
    plus the multisets still held when the job ends. *)
