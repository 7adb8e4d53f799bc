(** Per-task sensitivity analysis: how much can one task's execution
    time grow — all else fixed — before the workload stops being
    schedulable under a given scheduler?

    This is the question an engineer iterating on one control loop
    actually asks ("§5: priority-driven schedulers can easily handle
    changes in the workload during the design process" — this module
    quantifies the headroom).  The scale factor is found by bisection
    on the overhead-aware feasibility test, so it accounts for the
    scheduler's own run-time costs. *)

type headroom = {
  task_id : int;
  wcet : Model.Time.t;
  max_wcet : Model.Time.t;
      (** largest feasible WCET for this task (others unchanged);
          capped at the task's deadline *)
  scale : float;  (** max_wcet / wcet *)
}

val per_task :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  Model.Taskset.t ->
  headroom list
(** Headroom for every task, in RM order.  A task in an already
    infeasible workload reports [max_wcet = 0] and [scale = 0].
    Bisection finds [max_wcet] to within 1% (and 1 ns). *)

val bottleneck :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  Model.Taskset.t ->
  headroom option
(** The task with the least relative headroom — where the design is
    tightest.  [None] for an empty result (never, given non-empty
    sets). *)

val render : headroom list -> string
