(** Static blocking-term extraction.

    Replays the §6.2.1 code parser's walk over each thread program to
    measure every critical section: from an [Acquire] to its matching
    [Release], summing the bounded time spent inside — [Compute]
    durations, [Delay] sleeps, [Timed_wait] timeouts.  Unbounded
    blocking inside a section ([Wait]/[Recv]/[Send]) contributes
    nothing here and is flagged by the blocking-hygiene check; time
    spent *waiting to acquire* a nested inner lock is likewise excluded,
    matching the classical one-critical-section blocking bound under
    priority inheritance that {!Analysis.Blocking.blocking_terms}
    implements.  Over branching programs the walk is a forward
    dataflow on the flattened DAG with per-path maxima at merges: a
    section spanning a branch is measured along its worst arm, and a
    section open on only one arm survives the join.

    The result feeds response-time analysis directly: instead of
    hand-declaring who locks what for how long, the verifier derives it
    from the same programs the kernel will interpret, and
    [Analysis.Rta.response_time ?blocking] consumes the terms. *)

val critical_sections : Ctx.t -> Analysis.Blocking.critical_section list
(** Every critical section of every task, as the declarative rows
    blocking analysis consumes ([task_rank] is the RM rank).  A section
    left open at job end extends to the end of the program (lock
    balance reports the bug; the extraction stays sound). *)

val blocking_sections : Ctx.t -> Analysis.Blocking.critical_section list
(** {!critical_sections} with back-to-back chains merged: when a
    program releases a lock and reaches another top-level acquire with
    no intervening CPU-yielding instruction, the kernel's direct
    hand-off can re-grant the task ahead of higher-priority tasks that
    have not issued their own acquire yet — the whole chain then blocks
    a higher-priority job as one continuous episode.  Each maximal
    chain becomes one section with the summed duration and the member
    semaphores recorded in [chained].  This is what a sound blocking
    bound must consume; the campaign's RTA-vs-simulation oracle is what
    caught the unmerged version under-counting. *)

val blocking_terms : Ctx.t -> int array
(** Per-rank worst-case priority-inheritance blocking, ns:
    [Analysis.Blocking.blocking_terms] over {!blocking_sections}.
    Pass to [Analysis.Rta.response_time ~blocking]. *)

val declared_rta : Ctx.t -> Model.Time.t option array
(** Per-rank response-time bound of each task's declared WCET under
    {!blocking_terms}, [None] without a fixpoint: what [inject]'s [rta]
    predictions and [check --rta] compare against.  (The campaign and
    [explain] use the Table-1-inflated recipe of [Campaign.Eval].) *)

val per_sem : Ctx.t -> (int * int * int) list
(** Per-semaphore summary, sorted by sem id: [(sem_id, ceiling,
    worst_cs)] where [ceiling] is the priority ceiling — the best
    (lowest) RM rank of any task that acquires the semaphore — and
    [worst_cs] the longest statically bounded critical section on it,
    ns. *)
