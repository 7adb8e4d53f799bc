(** Overhead-aware schedulability: the paper's question "which
    scheduler can feasibly schedule this workload once its own run-time
    cost is charged?" (§5.7).  WCETs are first inflated by
    [Overhead.per_task], then checked with the test matching the
    scheduler: exact RTA for RM (either implementation), the
    processor-demand criterion for EDF, and the hierarchical test for
    CSD partitions (FP tasks by RTA against all shorter-period tasks;
    each DP queue by EDF demand under ceiling interference from the
    queues above it). *)

val feasible :
  cost:Sim.Cost.t -> spec:Emeralds.Sched.spec -> Model.Taskset.t -> bool

val feasible_rows : spec:Emeralds.Sched.spec -> (int * int * int) array -> bool
(** Same, on pre-inflated [(period, deadline, wcet)] rows in RM order
    (for callers that inflate once and test many partitions). *)
