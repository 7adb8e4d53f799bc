(** Per-task scheduler run-time overhead, folded into WCETs.

    §5.1: each task blocks and unblocks at least once per period, and on
    average half the tasks make one extra blocking call, giving a
    per-period scheduler overhead of [t = 1.5 (t_b + t_u + 2 t_s)].
    The [t_b]/[t_u]/[t_s] terms come from the cost model's Table 1
    entries; for CSD they follow the per-queue-class breakdown of
    Table 3, plus the [x * 0.55 us] queue-list parse per scheduler
    invocation. *)

val layout : int list -> int -> int list * int
(** [layout sizes n] clips a CSD partition to an [n]-task workload:
    the populated DP-queue lengths and the FP-queue length. *)

val per_task :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  n:int ->
  rank:int ->
  Model.Time.t
(** Per-period overhead charged to the task of RM rank [rank]
    (0-based, shortest period first) in an [n]-task workload.
    For [Csd sizes] the rank determines the task's queue and hence its
    Table 3 row. *)

val inflate :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  Model.Taskset.t ->
  (int * int * int) array
(** [(period, deadline, wcet + overhead)] rows in RM order — the input
    the schedulability tests consume. *)

val program_charges : cost:Sim.Cost.t -> Emeralds.Program.t -> Model.Time.t
(** Worst-path sum ({!Emeralds.Program.worst_path}) of the
    {!Emeralds.Charge.hi} of every kernel call one job of this program
    makes.  A [Recv] is priced at a fixed 16-word payload: the copy
    cost depends on the sender, which the receiving program cannot
    name, and no shipped preset or generated scenario sends more. *)

val job_envelope :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  n:int ->
  rank:int ->
  Emeralds.Program.t ->
  Model.Time.t
(** Everything one job can charge: {!program_charges} plus one §5.1
    scheduler term per block/unblock cycle, two per acquire (inherit
    and restore on contention), and a context-switch pair per cycle. *)

val job_budget :
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  taskset:Model.Taskset.t ->
  programs:Emeralds.Program.t array ->
  rank:int ->
  response:Model.Time.t ->
  irqs:int ->
  Model.Time.t
(** Bound on the total kernel overhead charged during one response
    window of the task at RM rank [rank]: its own {!job_envelope},
    plus [ceil(R/T_j) + 1] envelopes of every other task whose jobs
    can overlap the window, plus [irqs] interrupt entries (the IRQ
    count is observed, its price is Table 1's).  This is what the
    ambient overhead component of a blame decomposition is checked
    against. *)
