(** The EMERALDS kernel model.

    A uniprocessor microkernel running on the discrete-event engine:
    kernel-managed threads (one per periodic task), a pluggable
    scheduler ([Sched.spec]), semaphores with priority inheritance in
    both the standard and the EMERALDS (§6) implementations, condition
    variables, mailbox message-passing and state-message IPC, timers,
    and interrupt handling.  Every kernel operation charges virtual
    time from the [Sim.Cost] model, so traces expose exactly the
    overheads the paper's evaluation measures. *)

type t

val create :
  ?keep_trace:bool ->
  ?optimized_pi:bool ->
  ?input_seed:int ->
  ?origin:Model.Time.t ->
  ?programs:(Model.Task.t -> Program.t) ->
  ?engine:Sim.Engine.t ->
  cost:Sim.Cost.t ->
  spec:Sched.spec ->
  taskset:Model.Taskset.t ->
  unit ->
  t
(** Build a kernel for a task set.  Static priorities (and CSD queue
    membership) follow the task set's rate-monotonic order, and timers
    fire at exact instants: EMERALDS programs its on-chip timer for
    each release, delay and timeout rather than polling a periodic
    tick.

    Every object a task program names starts from its declared state,
    as at boot: a semaphore free with an empty approach queue, a wait
    queue's pending signals, a mailbox's queue, a state message's slots
    and sequence ({!State_msg.restart}), a pool's free blocks.  So the
    objects of one scenario serve any number of kernels created one
    after another, each run as if first.  Two
    kernels alive at once must not share an object, since creating the
    second restarts the first's; the fabric's shards run default
    programs and name none.

    - [engine]: share an existing discrete-event engine (distributed
      configurations put several nodes and a fieldbus on one engine);
      by default the kernel owns a fresh one.

    - [keep_trace] (default true): retain individual trace entries,
      encoded into the trace's byte log (a few bytes per event, never
      scanned by the GC; see {!Sim.Trace.t}); disable for bulk
      feasibility sweeps, which need only the aggregate counters.
    - [optimized_pi] (default true): §6.2 place-holder priority
      inheritance; false selects the standard re-sorting path.
    - [programs] gives each task its job body (default: a single
      [compute wcet]).  Structured control flow is lowered by
      [Program.flatten] at TCB construction; hints for EMERALDS
      semaphores are derived automatically (the code parser).
    - [input_seed] (default 0): seeds the per-job input words that
      decide [Program.if_input] branches.  Branch-free programs never
      consume the stream, so the seed has no effect on them.
    - [origin] (default 0): absolute instant treated as time zero for
      every task phase.  A kernel created mid-run on a shared engine
      (a restarted or failed-over fabric shard) must pass
      [origin >= Engine.now]: first releases then land at
      [origin + phase] and the engine never sees a past event. *)

val run : t -> until:Model.Time.t -> unit
(** Simulate up to the horizon (inclusive of events at it). *)

val now : t -> Model.Time.t
val trace : t -> Sim.Trace.t

val probe : t -> Obs.Probe.t
(** The kernel's tracepoint hub.  Every event reaching {!trace} flows
    through it; attach [Obs.Metrics] / [Obs.Flightrec] subscribers
    here ({e before} running) for streaming statistics or bounded
    post-mortem recording without touching the trace itself. *)

val halt : t -> unit
(** Freeze this kernel permanently: already-queued engine events still
    fire but are ignored, no new work is scheduled, and no further
    trace entries (deadline misses included) are emitted.  Models a
    node crash in a multikernel fabric — other kernels sharing the
    engine are unaffected. *)

(** Per-task outcome. *)
type task_stats = {
  tid : int;
  jobs_completed : int;
  misses : int;
  max_response : Model.Time.t;
  mean_response : Model.Time.t;
}

val stats : t -> task_stats list
val total_misses : t -> int

val tcb : t -> tid:int -> Types.tcb
(** The thread of task [tid] (tids are task ids); for tests and
    experiments. *)

val check_invariants : t -> unit
(** Assert the scheduler's structural invariants (queue link
    consistency, ready counts, highestp correctness) and basic TCB
    sanity; raises on violation.  For tests and fuzzing. *)

(** {1 Environment hooks}

    External events (sensor interrupts, fieldbus frames) are injected
    by scheduling environment actions; handlers run in kernel context
    and may signal wait queues. *)

val register_irq :
  t ->
  irq:int ->
  ?signals:Types.waitq list ->
  ?writes:State_msg.t list ->
  handler:(unit -> unit) ->
  unit ->
  unit
(** Install a handler; it runs with the interrupt-entry cost already
    charged.  [signals] and [writes] declare which wait queues the
    handler may signal and which state messages it publishes — static
    metadata for the §6.2.1-style code parser / lint pass (the handler
    body is an opaque closure the verifier cannot see into).
    @raise Invalid_argument on a duplicate irq. *)

val irq_signals : t -> Types.waitq list
(** Wait queues declared as signalled by some registered IRQ handler. *)

val irq_state_writes : t -> State_msg.t list
(** State messages declared as written by some registered IRQ
    handler. *)

val raise_irq_at : t -> at:Model.Time.t -> irq:int -> unit
(** Schedule delivery of interrupt [irq].
    @raise Not_found if no handler is registered when it fires. *)

val raise_irq_series :
  t -> count:int -> at:(int -> Model.Time.t) -> irq:int -> unit
(** [raise_irq_at] at each of the non-decreasing instants [at 0], ...,
    [at (count - 1)], with the same events in the same order, queued
    one at a time ({!Sim.Engine.schedule_series}). *)

val signal_waitq : t -> Types.waitq -> unit
(** Signal a wait queue from kernel context (typically inside an
    interrupt handler): wakes the highest-priority waiter or leaves a
    pending signal. *)

val at : t -> at:Model.Time.t -> (unit -> unit) -> unit
(** Run an arbitrary environment action in kernel context at a given
    time. *)

val trigger_job_at : t -> at:Model.Time.t -> tid:int -> unit
(** Release one job of task [tid] at time [at] — an aperiodic or
    sporadic arrival (§5 motivates priority schedulers with exactly
    these: cyclic executives give them poor response).  The job gets
    the task's relative deadline from the trigger instant.  Intended
    for tasks whose [phase] lies beyond the simulation horizon, so the
    periodic release chain stays quiet; [period] then acts as the
    sporadic minimum interarrival for analysis purposes. *)

val trigger_job_series :
  t -> count:int -> at:(int -> Model.Time.t) -> tid:int -> unit
(** [trigger_job_at] at each of the non-decreasing instants [at 0],
    ..., [at (count - 1)], with the same events in the same order,
    queued one at a time ({!Sim.Engine.schedule_series}). *)

(** {1 Budget enforcement}

    The robustness layer: what the kernel does when a job violates the
    declared WCET or arrival model the static analyses assumed.  With
    no enforcement installed (the default) every path below is inert
    and the kernel's behaviour — including its trace, event counts and
    virtual-time charges — is bit-identical to the unenforced kernel;
    the fuzz differential in [test_fuzz] checks exactly this.  Each
    task's enforcement state lives in its TCB ([Types.tcb.enf]).

    A killed job leaves as a completed one does: the release queued
    behind it begins at once, else the task goes dormant.  Under a
    deadline-ordered queue (EDF, a CSD DP queue) the new job's
    deadline is new, so the scheduler re-selects first; under a
    fixed-priority queue the job runs on. *)

type overrun_policy =
  | Kill_job      (** abort the offending job, releasing its mutexes *)
  | Skip_next     (** abort, and also shed the task's next release *)
  | Demote of int
      (** finish the job at a priority lowered by this many ranks (for
          deadline-ordered queues the EDF key is postponed by that many
          periods); skipped while the thread holds an inherited
          priority, cleared at its next release *)
  | Notify_only   (** record the overrun, let the job run on *)

type miss_policy =
  | Miss_record    (** pre-enforcement behaviour: a trace statistic *)
  | Miss_kill
      (** abort the late job; deferred until its next dispatch while it
          is blocked (a blocked thread cannot be unlinked from its wait
          list safely) *)
  | Miss_shed_next (** shed the task's next release *)

type enforcement = {
  budget_of : Model.Task.t -> Model.Time.t option;
      (** per-job execution budget; [None] leaves the task unenforced *)
  policy : overrun_policy;
  miss : miss_policy;
  shed_one_in : int option;
      (** skip-over overload shedding: a release that finds the
          previous job still active may be dropped, at most one in
          every [k] releases of that task *)
}

val set_enforcement : t -> enforcement option -> unit
(** Install (or clear) the enforcement configuration.  Budgets are
    watched by an exhaustion event armed when a compute burst that
    could cross the budget starts, and fires 1 ns past the crossing:
    a job is charged at most its budget plus 1 ns before the policy
    acts.  Call before [run].
    @raise Invalid_argument if [shed_one_in] is non-positive or a
    [Demote] rank is non-positive. *)

(** Per-task enforcement outcome. *)
type enf_stats = {
  e_tid : int;
  e_overruns : int;
  e_kills : int;
  e_sheds : int;
  e_budget_used : Model.Time.t; (** consumed by the current/last job *)
  e_first_detection : Model.Time.t option;
      (** instant of the first overrun or deadline-miss detection *)
}

val enforcement_stats : t -> enf_stats list

(** {1 Memory enforcement}

    Per-task block-pool quotas: the memory analogue of WCET budgets.
    A quota bounds the blocks a task may hold live across all pools at
    once; the static analyses ([Lint.Alloc_discipline],
    [Absint.Exec]'s peak-live intervals) check the same bound
    statically, and this hook is how the kernel reacts when a job
    violates it at run time.  With no memory enforcement installed
    (the default) the path is inert and behaviour is bit-identical to
    the plain kernel. *)

type mem_enforcement = {
  quota_of : Model.Task.t -> int option;
      (** per-task live-block quota (across all pools); [None] leaves
          the task unenforced *)
  on_exceed : overrun_policy;
      (** reuse of the budget policies: [Kill_job] aborts the greedy
          job (its blocks are reclaimed), [Demote]/[Skip_next]/
          [Notify_only] as for budget overruns *)
}

val set_mem_enforcement : t -> mem_enforcement option -> unit
(** Install (or clear) the quota configuration.  Call before [run].
    @raise Invalid_argument if a [Demote] rank is non-positive. *)

(** Per-(task, pool) allocation outcome. *)
type mem_stats = {
  m_tid : int;
  m_pool : int;
  m_high_water : int;  (** max blocks this task held live at once *)
  m_leaked : int;  (** blocks still live at job completions (reclaimed) *)
  m_oom : int;  (** allocations denied because the pool was exhausted *)
}

val mem_stats : t -> mem_stats list
(** Sorted by (pool, task); only (task, pool) pairs that allocated at
    least once appear. *)

val quota_hits : t -> (int * int) list
(** [(tid, quota-exceeded detections)] per task; all zero without
    memory enforcement. *)

(** {1 Fault hooks}

    Installed by [lib/fault] to perturb the kernel's inputs; all
    default to inert.  Each hook receives enough identity to implement
    deterministic, seeded plans. *)

val set_demand_fault :
  t -> (tid:int -> job:int -> Model.Time.t -> Model.Time.t) option -> unit
(** Rewrite a [Compute] demand as the instruction starts (WCET
    overrun: scale or add); resumed bursts keep their residue. *)

val set_release_jitter :
  t -> (tid:int -> job:int -> Model.Time.t) option -> unit
(** Offset a periodic release from its nominal instant (may be
    negative; clamped so no release is scheduled in the past). *)

val set_signal_drop : t -> (wq_id:int -> bool) option -> unit
(** Return [true] to lose a wait-queue signal (covers kernel [Signal]
    instructions and IRQ-handler signals alike). *)

val set_branch_oracle :
  t -> (tid:int -> job:int -> idx:int -> bool option) option -> unit
(** Force branch outcomes.  The oracle is consulted once per consumed
    input bit ([idx] counts bits within the job); [Some taken] decides
    the branch ([true] = fall through to the first arm), [None] falls
    back to the job's input word.  Tests use it to steer the kernel
    down a specific path; the model checker's counterexample replay
    ([Mc.Counterexample.replay]) drives [Mc.Step] instead and never
    calls it. *)
