(** Cyclic time-slice executive — the baseline §5 argues against.

    The entire schedule is computed off-line and replayed at run time.
    That eliminates run-time scheduling decisions, but (the paper's
    three bullets): schedules are costly to produce and modify,
    high-priority aperiodic arrivals see poor response (they can only
    be served from slack), and workloads mixing short and long — or
    relatively prime — periods need huge tables in scarce memory.

    [generate] builds a table the way practitioners did: lay out an
    ideal deadline-driven schedule over one major cycle (the
    hyperperiod) and freeze it.  The byte and slot counts quantify the
    memory bullet; [worst_aperiodic_response] quantifies the response
    bullet against the preemptive schedulers. *)

type slot = {
  start : Model.Time.t;
  duration : Model.Time.t;
  tid : int option;  (** [None] = idle slack *)
}

type table = {
  minor_frame : Model.Time.t;  (** gcd of the periods *)
  major_cycle : Model.Time.t;  (** lcm of the periods *)
  slots : slot list;           (** covers exactly one major cycle *)
}

val generate : Model.Taskset.t -> table option
(** [None] when no feasible schedule exists (U > 1 or deadline
    overflow).  Requires zero phases (cyclic tables assume a
    synchronous start). *)

val slot_count : table -> int

val memory_bytes : table -> int
(** Table storage: 6 bytes per slot (16-bit start offset, 16-bit
    length, 16-bit task id — a typical '90s encoding). *)

val utilization_of_slots : table -> float
(** Fraction of the major cycle occupied by task slots (sanity:
    equals the workload utilization). *)

val worst_aperiodic_response :
  table -> wcet:Model.Time.t -> Model.Time.t option
(** Worst-case completion time of an aperiodic job served only from
    idle slack (the cyclic executive cannot preempt its table), over
    all arrival instants.  [None] if the table has insufficient idle
    time per cycle. *)
