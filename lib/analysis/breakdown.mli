(** Breakdown utilization (§5.7, after Katcher et al. [13]): scale a
    workload's execution times until the overhead-aware feasibility
    test fails; the utilization of the last feasible scaling is the
    scheduler's breakdown utilization for that workload.  Figures 3–5
    average this over 500 random workloads per task count. *)

val search : feasible:(float -> bool) -> u0:float -> float
(** Generic bisection: [feasible s] must be monotone (feasible at small
    [s], infeasible at large).  Returns the breakdown utilization
    [u0 * s*], to within 0.004, where [u0] is the workload's unscaled
    utilization; 0 if even a vanishing scaling is infeasible. *)

val of_spec :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  Model.Taskset.t ->
  float
(** Breakdown utilization of one fixed scheduler configuration. *)

val of_csd :
  cost:Sim.Cost.t ->
  queues:int ->
  Model.Taskset.t ->
  float
(** Breakdown utilization of CSD-[queues] with the partition free: a
    scaling is feasible if any [Partition.Grid] candidate partition
    schedules it (the off-line allocation search picks that
    partition).  The last successful partition is tried first at the
    next scaling. *)
