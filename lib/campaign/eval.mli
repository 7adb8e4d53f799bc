(** Evaluate one generated scenario against the oracle lattice.

    The scenario is re-realized for every stateful consumer — the
    static analyses, each simulation run, and the model checker — so
    no kernel-object state leaks between layers.  The RM cross-check
    terms (RTA eligibility, the Table-1-inflated fixpoint, the lint
    blocking terms, the per-component blame bounds) are derived only
    by {!statics} and {!blame_terms}; the CLI's [explain] reads its
    terms from there. *)

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
  ctx : Lint.Ctx.t;
  absint : Absint.Report.t;
      (** under the [Cfg_loop]/[Cfg_join] lesions when so ablated *)
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
(** The static phase of {!run} on an already realized scenario: lint
    context, absint report, blocking terms, RM rows, RTA fixpoints and
    eligibility.  All RM-specific, priced at [Sim.Cost.m68040]. *)

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

val norm_sig :
  Emeralds.Kernel.t -> Sim.Trace.stamped list * Model.Time.t * int
(** A kernel trace's entries, busy time and context-switch count.  Kept
    only for perfbench's replay of the Ident comparison; {!run} compares
    the traces in place with [Sim.Trace.equal].  Object ids are per
    realization, so two realizations of one spec compare as they are. *)

val run_e2e :
  index:int ->
  ablation:Oracle.ablation ->
  Workload.Generator.spec ->
  Fabric.Cluster.t * Fault.Report.net_score * (int * Model.Task.t list) list
(** The e2e oracle's fabric run in isolation: a canonical three-shard
    fabric derived from the scenario, one node crashed under frame
    loss.  Returns the cluster (for latency/bound introspection), the
    scored outcome, and the initial per-node task assignments (the
    blame fabric leg resolves migrated tasks against them);
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
