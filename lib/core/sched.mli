(** Scheduler construction.

    EMERALDS' CSD framework (§5.3–§5.6) generalises EDF and RM: a
    prioritised list of queues where each dynamic-priority (DP) queue is
    EDF-within and the final fixed-priority (FP) queue is RM-within.
    EDF is the one-DP-queue case and RM the FP-only case, so all three
    (plus CSD-2/3/4/...) instantiate one generic core; the heap-based
    RM variant of Table 1 is separate.

    Tasks are assigned to queues by rate-monotonic rank: a partition
    [sizes = [r1; r2; ...]] puts the [r1] shortest-period tasks in DP1,
    the next [r2] in DP2, and every remaining task in the FP queue. *)

type spec =
  | Edf
  | Rm
  | Rm_heap
  | Csd of int list
      (** DP-queue sizes, shortest-period tasks first; remaining tasks
          go to the FP queue.  [Csd [r]] is CSD-2, [Csd [q; r]] is
          CSD-3, etc. *)

val spec_name : spec -> string

val queue_count : spec -> int
(** Queues the scheduler parses per invocation (the x in CSD-x's
    [x * 0.55 us]); 1 for Edf/Rm/Rm_heap. *)

val instantiate :
  spec -> cost:Sim.Cost.t -> optimized_pi:bool -> Types.sched
(** Build a fresh scheduler instance.  [optimized_pi] selects the §6.2
    O(1) place-holder priority-inheritance path (EMERALDS semaphores);
    otherwise priority changes re-sort the queue (standard semaphores).
    [Rm_heap] always uses re-keying — the heap cannot hold blocked
    place-holders.
    @raise Invalid_argument if a [Csd] partition has a non-positive
    queue size. *)

val served_first :
  Types.queue_class -> rank:int -> deadline:Model.Time.t -> base:int ->
  int * int * int
(** The served-first key of a task blocked on a kernel object: of the
    tasks waiting on one object, the smallest key (by [compare]) takes
    the released unit, the signal, the message or the free slot.  A DP
    queue serves its earliest effective deadline, the FP queue its best
    effective rank, DP queues come before the FP queue, and ties go to
    the better base rank.  The model checker orders its waiters by the
    same key. *)

val validate_partition : spec -> n_tasks:int -> unit
(** Check a partition fits a workload ([Csd] sizes must sum to at most
    the task count); other specs always fit.
    @raise Invalid_argument otherwise. *)
