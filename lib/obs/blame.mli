(** Per-job response-time blame attribution.

    An online attributor that consumes the probe stream and decomposes
    every job's observed response time into named components — own
    execution, per-preempting-task interference, per-semaphore blocking
    (direct and inheritance-induced, including §6.3.1 approach-queue
    parking), per-Table-1-category kernel overhead, IRQ service time,
    release backlog, voluntary suspension and idle gap — such that the
    components sum {e exactly} to the observed response on every job
    (the conservation law; the residual is checked, not assumed,
    because the backlog term is derived independently from the release
    entry's absolute deadline).

    Memory is O(tasks x ranks + semaphores touched), independent of
    trace length: per task the attributor keeps the one open job, the
    worst closed job's breakdown, and running maxima.

    Attribution is interval-based: on every probe event at time [t]
    the span since the previous event is split into the kernel-overhead
    portion (reconstructed from [Overhead] charges mirrored through the
    kernel's [busy_until] cursor, attributed ambiently to every open
    job) and a remainder classified by each task's state during the
    span — running (own execution), ready behind a higher-base-priority
    runner (interference, billed to that runner's rank), ready or
    semaphore-blocked behind a lower-base-priority runner (blocking,
    billed to the semaphore driving the inversion), parked in an
    approach queue (blocking on that semaphore), voluntarily suspended
    (wait/delay/mailbox), or ready with an idle CPU (gap — an
    attributor artefact bucket kept for conservation, excluded from
    domination checks). *)

type t

type cause =
  | Own_exec
  | Interference of int  (** rank of the preempting task *)
  | Blocking of int  (** semaphore id; [-1] = unattributed inversion *)
  | Kernel_overhead
  | Irq_overhead
  | Backlog  (** release sat behind an unfinished predecessor job *)
  | Suspension
  | Idle_gap

val cause_label : cause -> string
(** Stable short name ("exec", "interference(rank 2)", "sem 3",
    "overhead", "irq", "backlog", "suspend", "gap"). *)

type breakdown = {
  b_tid : int;
  b_job : int;
  b_response : Model.Time.t;
  b_exec : Model.Time.t;
  b_backlog : Model.Time.t;
  b_interference : (int * Model.Time.t) list;
      (** (rank, time) of each preempting task, nonzero terms only,
          ascending rank. *)
  b_blocking : (int * Model.Time.t) list;
      (** (semaphore, time), nonzero terms only; [-1] collects
          inversion spans whose semaphore could not be identified. *)
  b_overhead : (Sim.Trace.ovh_category * Model.Time.t) list;
      (** Nonzero Table-1 categories, declaration order.  IRQ service
          time is the [Ovh_irq] row; enforcement actions are the
          [Ovh_sched_demote] row. *)
  b_suspend : Model.Time.t;
  b_gap : Model.Time.t;
  b_irqs : int;  (** interrupts arriving while the job was open *)
  b_residual : Model.Time.t;
      (** [b_response] minus the sum of all components; [0] whenever
          the conservation law holds. *)
}

val blocking_total : breakdown -> Model.Time.t
val overhead_total : breakdown -> Model.Time.t

val components_total : breakdown -> Model.Time.t
(** Sum of every component (excluding the residual); equals
    [b_response] iff [b_residual = 0]. *)

val dominant : breakdown -> cause * Model.Time.t
(** The largest single component.  Interference and blocking compete
    per-rank / per-semaphore, not as aggregates; kernel overhead
    competes as one aggregate with the IRQ row split out. *)

type task_summary = {
  s_id : int;
  s_rank : int;
  s_jobs : int;  (** closed (completed) jobs *)
  s_killed : int;  (** open jobs discarded by [Job_killed] *)
  s_max_response : Model.Time.t;
  s_worst : breakdown option;  (** breakdown of the worst-response job *)
  s_max_exec : Model.Time.t;
  s_max_interference : (int * Model.Time.t) list;
      (** per-rank maxima across jobs (each maximized independently) *)
  s_max_blocking_total : Model.Time.t;
  s_max_overhead_total : Model.Time.t;
  s_max_irqs : int;
  s_first_release : Model.Time.t option;
  s_last_release : Model.Time.t option;
      (** absolute (backdated) release times — the fabric failover-gap
          cross-check compares these across shards *)
  s_max_abs_residual : Model.Time.t;
  s_residual_violations : int;
      (** closed jobs whose components did not sum to their response *)
}

val create : tasks:(int * Model.Time.t * Model.Time.t) array -> unit -> t
(** [create ~tasks:(id, period, relative_deadline)] in RM order: row
    index = rank, matching the kernel's [base_prio] assignment.  Ids
    index a dense table, so events of negative ids are ignored. *)

val of_taskset : Model.Taskset.t -> (int * Model.Time.t * Model.Time.t) array
(** The [~tasks] argument for a kernel built from [taskset] with the
    default RM priority order. *)

val observe : t -> Sim.Trace.stamped -> unit
(** Feed one probe event.  Events must arrive in nondecreasing time
    order (the probe hub guarantees this). *)

val attach : t -> Probe.t -> unit
(** Subscribe [observe] to every probe category. *)

val on_complete : t -> (breakdown -> unit) -> unit
(** Invoke a callback with each closed job's breakdown, in completion
    order (used by the Perfetto exporter for counter tracks). *)

val summary : t -> tid:int -> task_summary option
val summaries : t -> task_summary list  (** rank order *)

val residual_violations : t -> int
(** Total conservation-law violations across all tasks. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
(** Ranked component table, largest first. *)
