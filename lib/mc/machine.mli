(** The model checker's input: a workload scenario compiled into a
    closed, pure transition system.

    The kernel interprets programs over heap-allocated mutable objects
    ([Types.sem], [Types.waitq], ...).  The checker needs values it can
    snapshot, hash and fork, so compilation assigns every kernel object
    a dense index and rewrites each thread program into an [instr]
    array over those indices.  Payload contents are dropped — no
    checked property depends on message bytes, only on occupancy,
    sequence numbers and blocking structure — which keeps states small
    and canonical.

    [State_read] compiles into a begin/end pair (with the configured
    copy span in between) so the checker can interleave interrupt-driven
    writes *into* a read and decide the §7 tear-freedom bound, instead
    of treating reads as atomic the way the simulator does. *)

type instr =
  | ICompute of int           (** burn CPU for n ns (preemptible) *)
  | IAcquire of int           (** semaphore index *)
  | IRelease of int
  | IWait of int              (** wait-queue index *)
  | ITimed_wait of int * int  (** wait-queue index, timeout ns *)
  | ISignal of int
  | IBroadcast of int
  | ISend of int              (** mailbox index *)
  | IRecv of int
  | ISwrite of int            (** state-message index *)
  | ISread_begin of int       (** snapshot the published sequence *)
  | ISread_end of int         (** tear check: writes completed mid-read *)
  | IDelay of int
  | IAlloc of int             (** block-pool index; denied when empty *)
  | IFree of int              (** faults when the job holds no block *)
  | IBr_input of int
      (** data-dependent branch: a nondeterminism source.  The checker
          forks over both outcomes (fall through / jump to the machine
          pc) where the kernel consults its input word. *)
  | IJump of int              (** unconditional forward jump (machine pc) *)

type release_model =
  | Periodic
  | Sporadic of { min_ia : int; max_ia : int }
      (** released at nondeterministic instants, at least [min_ia]
          apart; the checker forks over the window ends and over
          silence *)

type mtask = {
  idx : int;        (** RM rank, the model's task identifier *)
  tid : int;        (** kernel task id, for messages and traces *)
  task_name : string;
  period : int;
  phase : int;
  deadline : int;   (** relative *)
  wcet : int;
  code : instr array;
  release : release_model;
  pure_from : bool array;
      (** [pure_from.(pc)]: every instruction from [pc] onward is
          [ICompute] — the suffix cannot interact with any other task,
          which is what licenses the partial-order reduction *)
}

type irq_src = {
  src_irq : int;
  min_ia : int;
  max_ia : int;
  sig_wqs : int list;  (** wait-queue indices one delivery signals *)
  wr_sms : int list;   (** state-message indices one delivery writes *)
}

type sched = Fp | Edf

type t = {
  model_name : string;
  tasks : mtask array;     (** in RM-rank order *)
  sem_ids : int array;     (** model index -> kernel object id *)
  wq_ids : int array;
  mb_ids : int array;
  mb_cap : int array;
  sm_ids : int array;
  sm_depth : int array;
  pool_ids : int array;
  pool_cap : int array;
  irqs : irq_src array;
  sched : sched;
  hyperperiod : int;
  read_span : int;         (** ns a state-message copy spans; 0 = atomic *)
}

val of_scenario :
  ?sched:sched ->
  ?read_span:int ->
  ?sporadic:(int * Model.Time.t * Model.Time.t) list ->
  Workload.Scenario.t ->
  t
(** Compile a scenario.  [sched] defaults to [Fp] (rate-monotonic
    ranks, the configuration response-time analysis can bound);
    [sporadic] re-declares tasks by id as sporadic with an
    inter-arrival window, silencing their periodic release chain.
    @raise Invalid_argument for an unknown sporadic task id or a
    non-positive window. *)

val n_tasks : t -> int
val task_of_tid : t -> int -> mtask option
