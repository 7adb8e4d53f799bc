(** Evaluate one generated scenario against the oracle lattice.

    {!run} realizes the scenario once and hands it to the static
    analyses, both simulation runs and the model checker.  The RM
    cross-check terms (RTA eligibility, the Table-1-inflated fixpoint,
    the lint blocking terms, the per-component blame bounds) are
    derived only by {!statics} and {!blame_terms}, and judged by
    {!blame_violations}; [explain]'s report, {!Explain}, calls all
    three. *)

type t = {
  findings : Oracle.finding list;
  stat_us : int;  (** wall time of lint + absint + RTA, microseconds *)
  sim_us : int;
      (** wall time of the simulation runs plus the e2e fabric run *)
  mc_us : int;  (** wall time of the model checker *)
  mc_expansions : int;
  mc_truncated : bool;
  metrics : Obs.Metrics.t option;
      (** event statistics folded from the enforced run's trace; only
          when [collect_metrics] *)
}

type statics = {
  scenario : Workload.Scenario.t;
  ablation : Oracle.ablation;  (** the one the terms were built under *)
  absint : Absint.Report.t;
      (** under the [Cfg_loop]/[Cfg_join] lesions when so ablated; its
          [ctx] is the scenario's one lint context *)
  blocking : Model.Time.t array;
      (** lint blocking term per RM rank; all zero under [Rta_blocking] *)
  rows : (int * int * int) array;
      (** Table-1-inflated [(period, deadline, wcet)] rows in RM order *)
  rta : Model.Time.t option array;  (** per-rank RTA fixpoint R* *)
  eligible : bool array;
      (** per rank: the program has no open-ended blocking (wait, timed
          wait, receive, send, delay), so RTA's bound speaks about it *)
}

val statics : ?ablation:Oracle.ablation -> Workload.Scenario.t -> statics
(** The static phase of {!run} on an already realized scenario: the
    absint report with its lint context, blocking terms, RM rows, RTA
    fixpoints and eligibility; all RM-specific, at [Sim.Cost.m68040]. *)

type term =
  | Exec
  | Interference of int  (** from the task at this RM rank *)
  | Blocking
  | Overhead

val blame_terms :
  statics -> rank:int -> Obs.Blame.task_summary -> (term * int * int) list
(** [(term, observed, bound)] for the task at RM [rank], observed being
    the summary's worst component across jobs: [Exec] against absint's
    demand upper end (when finite), [Interference j] against the RTA
    decomposition's term for rank [j] plus one carry-in job, [Blocking]
    against the lint term (always), [Overhead] against
    [Analysis.Overhead.job_budget] at R* with the observed IRQ count.
    Interference and overhead appear only when the fixpoint exists. *)

(** A blame verdict on one task: [term] is [None] for a conservation
    violation, else the term whose bound was exceeded. *)
type violation = { tid : int; term : term option; message : string }

val blame_violations :
  statics -> Sim.Trace.t -> Obs.Blame.task_summary -> violation list
(** The [blame] oracle's check of one task, which [explain] reports
    too: its conservation violation, then each {!blame_terms} row above
    its bound (halved under [Blame_bounds]), judged only for an
    RTA-eligible task with a fixpoint and a job, in a run whose trace
    shows no kill or shed. *)

val now_us : unit -> int
(** Host wall clock, microseconds. *)

val since_us : int -> int
(** Microseconds from a {!now_us} reading to now, clamped at 0: a host
    clock that steps back yields 0, never a negative duration. *)

val norm_sig : Emeralds.Kernel.t -> Sim.Trace.signature
(** The kernel trace's {!Sim.Trace.signature}: [=] on two of them is
    [Sim.Trace.equal] on the traces, the Ident comparison {!run} makes
    in place.  Kept for perfbench's replay of that comparison. *)

val sporadic_observer :
  Workload.Generator.spec -> horizon:Model.Time.t -> Emeralds.Kernel.t -> unit
(** Trigger the spec's sporadic tasks up to [horizon], the observer
    {!run}'s simulations install: each task's arrivals are drawn from
    its own split stream, a period plus up to a quarter period apart,
    and queued as one {!Emeralds.Kernel.trigger_job_series}. *)

val run_e2e :
  index:int ->
  ablation:Oracle.ablation ->
  Workload.Generator.spec ->
  Fabric.Cluster.t * Fault.Report.net_score * (int * Model.Task.t list) list
(** The e2e oracle's fabric run in isolation: the canonical
    three-shard fabric of scenario [index], one node crashed under
    frame loss, run by {!Fabric.Preset.run}.  Its periods come from
    the spec, but its scorecard depends on [index] alone.  Returns the
    cluster (its kernels, crash and migrations for the blame fabric
    leg), the scored outcome, which the oracle judges by
    {!Fault.Report.net_failures}, and the initial per-node task
    assignments (the blame leg resolves migrated tasks against them);
    [E2e_bound] halves the bound in the score. *)

val run :
  ?oracles:Oracle.key list ->
  ?ablation:Oracle.ablation ->
  ?collect_metrics:bool ->
  index:int ->
  Workload.Generator.spec ->
  t
(** Evaluate the selected oracles (default {!Oracle.all}).  Phases
    whose oracles are not selected are skipped entirely.  Exceptions
    propagate — the driver turns them into [Crash] findings. *)
