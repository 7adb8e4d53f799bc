(** Compile a fault plan onto a kernel and run it.

    An injection run builds a kernel from a {!Workload.Scenario.t}
    exactly the way the simulator does — programs attached, one IRQ
    handler per declared source signalling/publishing what the source
    declares, arrivals drawn seeded from each source's inter-arrival
    window — then compiles the plan onto it: demand, jitter and
    signal-loss faults through the kernel's fault hooks
    ([Kernel.set_demand_fault] etc.), storms / drops / sporadic bursts
    at the environment level ([raise_irq_at], withheld arrivals,
    [trigger_job_at]).  The empty plan installs no hook and withholds
    nothing, so the run is bit-identical to an unfaulted simulation.

    Every instant a fault actually perturbed the run is recorded as an
    activation; detection latency is measured from the first one. *)

type config = {
  scenario : Workload.Scenario.t;
  spec : Emeralds.Sched.spec;
  cost : Sim.Cost.t;
  horizon : Model.Time.t;
  seed : int;  (** drives IRQ arrival draws and jitter faults *)
  enforcement : Emeralds.Kernel.enforcement option;
  mem_enforcement : Emeralds.Kernel.mem_enforcement option;
  plan : Plan.t;
  observer : (Emeralds.Kernel.t -> unit) option;
      (** Called on the freshly built kernel before any fault hook or
          arrival is installed — the place to attach [Obs] subscribers
          ([Kernel.probe]) such as a flight recorder, so the dump
          covers the whole run.  [Report] builds one kernel per plan
          cell and calls this on each. *)
}

val default_config :
  scenario:Workload.Scenario.t ->
  ?spec:Emeralds.Sched.spec ->
  ?cost:Sim.Cost.t ->
  ?horizon:Model.Time.t ->
  ?seed:int ->
  ?enforcement:Emeralds.Kernel.enforcement ->
  ?mem_enforcement:Emeralds.Kernel.mem_enforcement ->
  ?plan:Plan.t ->
  unit ->
  config
(** RM scheduling, m68040 costs, 200 ms horizon, seed 7, no
    enforcement, empty plan, no observer. *)

val declared_budgets : Model.Task.t -> Model.Time.t option
(** The natural budget function: every task's declared WCET. *)

val check_plan : Workload.Scenario.t -> Plan.t -> (unit, string) result
(** Every clause that names a task ([wcet-scale], [wcet-add], [jitter],
    [burst]) must name one of the scenario's, and no clause may be a
    fabric fault ([frame-drop], [frame-corrupt], [node-crash],
    [node-restart], [link-partition]), which only the fabric
    interprets; [Error] names the first clause that fails.  IRQ and
    wait-queue ids go unchecked.  {!run} does not check: the CLI calls
    this first. *)

val declared_quotas :
  Workload.Scenario.t -> Model.Task.t -> int option
(** The natural live-block quota function: the static analyzer's
    derived per-task peak-live bound (upper ends summed across pools).
    [None] for tasks that never allocate — they stay unenforced. *)

type outcome = {
  kernel : Emeralds.Kernel.t;  (** after running to the horizon *)
  activations : (Model.Time.t * string) list;
      (** chronological instants at which a fault perturbed the run,
          with a short description each *)
}

val run : config -> outcome
(** Every run keeps its full trace: reports diff it against a
    baseline and fold overrun entries out of it. *)

val first_activation : outcome -> Model.Time.t option
