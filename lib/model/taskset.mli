(** An immutable set of periodic tasks, kept in rate-monotonic priority
    order (shortest period first).  All schedulers and analyses index
    tasks by their position in this order, which is also how the paper
    defines CSD partitions ("given a workload sorted by RM-priority,
    tasks 1..r are placed in the DP queue", §5.3). *)

type t

val of_list : Task.t list -> t
(** Sorts by RM priority.  @raise Invalid_argument on duplicate task
    ids or an empty list. *)

val tasks : t -> Task.t array
(** Tasks in RM order.  The returned array must not be mutated. *)

val size : t -> int
val get : t -> int -> Task.t
(** Task at RM rank [i] (0 = shortest period). *)

val utilization : t -> float
(** Sum of wcet/period. *)

val hyperperiod : t -> Time.t
(** LCM of the periods. *)

val max_phase : t -> Time.t

val scale_wcets : t -> float -> t option
(** Multiply every WCET by a factor (rounding, floor 1 ns); used by the
    breakdown-utilization search and by the generator when driving a
    random set to a target utilization.  [None] when some scaled WCET
    would exceed its task's deadline — such a set is trivially
    infeasible, which is exactly what the breakdown search probes for. *)

val scale_periods_down : t -> int -> t option
(** Divide every period (and deadline and phase) by an integer factor —
    the Figures 4 and 5 transformation.  WCETs are unchanged; [None]
    when a WCET would exceed its shortened deadline. *)

val map : (Task.t -> Task.t) -> t -> t
