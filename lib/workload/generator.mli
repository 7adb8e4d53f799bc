(** Random workloads per the paper's test procedure (§5.7):

    - task periods are drawn so each has equal probability of being
      single-digit (5–9 ms), double-digit (10–99 ms) or triple-digit
      (100–999 ms) — the short/long mix typical of control systems;
    - execution times are drawn and then scaled so the workload starts
      at a moderate utilization; the breakdown search scales further;
    - Figures 4 and 5 divide all periods by 2 and 3 respectively.

    Beyond bare tasksets, {!spec_of} generates complete scenario
    programs — UUniFast utilization sampling on top of the period
    distribution, randomized lock/IPC topologies (nested acquires,
    condition waits, state messages, mailboxes), sporadic releases and
    IRQ sources — as a pure, shrinkable {!spec} that {!realize} turns
    into a {!Scenario.t}.  Specs are valid by construction:
    locks nest in a global index order (no deadlock), every state
    message has exactly one writer, every awaited event has a
    signaller, and declared WCETs equal the exact kernel-charge demand
    the abstract interpreter derives, so lint and [analyze] pass every
    generated scenario. *)

val random_taskset :
  rng:Util.Rng.t -> n:int -> ?target_u:float -> unit -> Model.Taskset.t
(** An [n]-task workload with the §5.7 period distribution; WCETs are
    scaled to [target_u] (default 0.5) when achievable.  Blocking-call
    counts alternate 0/1 so half the tasks make one blocking call per
    period, matching the 1.5 overhead factor. *)

val batch :
  seed:int -> n:int -> count:int -> ?target_u:float -> unit ->
  Model.Taskset.t list
(** [count] independent reproducible workloads: workload [i] is built
    from the split stream [i] of [seed], so changing [count] or
    consuming order never changes workload [i]. *)

val scale_to_utilization : Model.Taskset.t -> float -> Model.Taskset.t option
(** Scale WCETs to hit a target utilization; [None] if some WCET would
    exceed its deadline. *)

(** {1 Scenario generation} *)

type family = Generic | Automotive | Avionics | Robotics
(** Preset flavours.  [Generic] keeps the §5.7 three-digit-class
    period mix (restricted to divisors of 2 s so hyperperiods stay
    bounded); the named families use harmonic period menus and object
    mixes typical of their domain — state-message telemetry and IRQ
    sources for automotive, locks plus a maintenance mailbox for
    avionics, short binary periods and event waits for robotics. *)

val families : family list
val family_name : family -> string
val family_of_string : string -> family option

(** One program segment of a generated task.  Object references are
    dense indices into the spec's object tables; {!realize} allocates
    the actual kernel objects.  Keeping the spec pure is what lets the
    campaign shrinker delete tasks and segments and re-realize. *)
type seg =
  | S_compute of int  (** burn CPU, ns *)
  | S_critical of { lock : int; body : int; nested : (int * int) option }
      (** [acquire; compute body; release], optionally with a second
          critical section nested inside; [nested] locks always have a
          higher index than the outer lock, so the global acquisition
          order is acyclic by construction *)
  | S_cond_wait of { lock : int; wq : int; before : int; after : int }
      (** the condition-variable pattern: acquire the monitor, compute
          [before], [Program.condition_wait], compute [after], release *)
  | S_wait of int  (** wait-queue index *)
  | S_timed_wait of int * int  (** wait-queue index, timeout ns *)
  | S_signal of int
  | S_send of int  (** mailbox index; payload size is the mailbox's *)
  | S_recv of int
  | S_state_write of int  (** state-message index *)
  | S_state_read of int
  | S_delay of int  (** blocking sleep, ns *)
  | S_alloc of int  (** take one block from a pool (pool index) *)
  | S_free of int  (** return one block to a pool *)
  | S_branch of seg list * seg list
      (** a data-dependent two-way branch ([Program.if_input]); the
          kernel decides per job from the seeded input word.  Generated
          arms hold only computes (deliberately asymmetric, so
          path-insensitive bounds are measurably loose) *)
  | S_repeat of int * seg list
      (** a bounded loop ([Program.repeat]).  Generated bodies hold
          computes, or alloc/free bursts with cross-iteration
          retention (the burst-allocation family) *)

type task_spec = {
  g_id : int;
  g_period : int;  (** ns *)
  g_sporadic : bool;
      (** released by [Kernel.trigger_job_at] (phase beyond any
          horizon); [g_period] is the declared minimum interarrival *)
  g_segs : seg list;
}

type irq_spec = {
  gi_irq : int;
  gi_min_ia : int;  (** ns *)
  gi_max_ia : int;
  gi_signals : int list;  (** wait-queue indices *)
  gi_writes : int list;  (** state-message indices *)
}

type spec = {
  s_name : string;
  s_family : family;
  s_locks : int;  (** mutex count; index < this *)
  s_waitqs : int;
  s_mailboxes : (int * int) list;  (** capacity, payload words *)
  s_state_msgs : (int * int) list;  (** depth, words *)
  s_pools : (int * int) list;
      (** capacity (blocks), block bytes.  Generated pools are sized to
          the sum of their users' peaks, and every user's allocations
          sit in the job's front with the matching frees in its tail —
          balance, no double free, and denial-freedom are stream
          invariants; leak / double-free flavours exist only as demo
          scenarios, never in the generated stream. *)
  s_tasks : task_spec list;
  s_irqs : irq_spec list;
}

val sporadic_phase : Model.Time.t
(** The release offset given to sporadic tasks — far beyond any
    simulation horizon, so only [Kernel.trigger_job_at] releases
    them. *)

val spec_of :
  rng:Util.Rng.t ->
  index:int ->
  ?family:family ->
  ?n:int ->
  ?target_u:float ->
  unit ->
  spec
(** Generate one scenario spec.  [family] defaults to a random draw;
    [n] to 3–8 tasks; [target_u] to a draw in [0.35, 0.75] (clamped to
    0.85).  Per-task utilizations come from UUniFast over [target_u];
    each task's declared WCET is its compute budget plus the
    {!Emeralds.Charge.hi} of every kernel call its segments lower to
    (the heavier arm of a branch, [n] bodies of a loop), which is
    exactly the abstract interpreter's exec bound.  The realized set's
    utilization tracks the target (small upward rounding only). *)

val realize : ?cost:Sim.Cost.t -> spec -> Scenario.t
(** Allocate kernel objects and build the scenario.  Ids restart at 1
    ({!Emeralds.Ids.restart}), so every realization of a spec numbers
    its objects alike.  [cost] (default m68040) must match the cost
    model the scenario is analyzed and simulated under, since declared
    WCETs embed its charges.  Tasks whose segments sum to nothing get a
    minimal compute so the taskset stays valid. *)

val spec_utilization : ?cost:Sim.Cost.t -> spec -> float
(** Utilization of the realized taskset (declared WCET over period). *)

val scenario_specs :
  seed:int ->
  count:int ->
  ?family:family ->
  ?n:int ->
  ?target_u:float ->
  unit ->
  spec list
(** [count] reproducible scenario specs: spec [i] comes from split
    stream [i] of [seed], so growing [count] never changes spec
    [i]. *)
