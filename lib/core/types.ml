(* Core kernel types.

   Everything the EMERALDS kernel model manipulates — TCBs, thread
   programs, semaphores, wait queues, mailboxes, scheduler instances —
   refers to everything else, so the whole family lives in this one
   module; behaviour lives in [Readyq], [Sched], [Sem], [Ipc],
   [Kernel].  No .mli: these are the kernel's internal structures, and
   their full shape *is* the interface between those modules.  User
   code goes through [Kernel] and [Program]. *)

type thread_state =
  | Ready
  | Running
  | Blocked of string  (* reason, for traces and tests *)
  | Dormant            (* job finished, awaiting next release *)

type sem_kind = Standard | Emeralds
(* Standard: classic acquire/release with priority inheritance.
   Emeralds: §6.2/§6.3 — context-switch elimination via the next-sem
   hint on the preceding blocking call, the approach queue, and O(1)
   place-holder priority inheritance in sorted queues. *)

(* Per-task enforcement state: what [Kernel]'s budget, miss and quota
   policies know about a task.  It stays at [fresh_enf]'s values in a
   kernel with no enforcement installed. *)
type enf_state = {
  mutable used : Model.Time.t; (* budget consumed by the current job *)
  mutable probe : Sim.Engine.handle option; (* armed budget-exhaustion event *)
  mutable probe_job : int;
  mutable overrun_flagged : bool; (* at most one overrun event per job *)
  mutable skip_next : bool;
  mutable since_shed : int; (* releases run since the last shed *)
  mutable kill_pending : bool; (* miss-kill deferred until next dispatched *)
  mutable demoted : bool;
  mutable quota_flagged : bool; (* at most one quota event per job *)
  mutable quota_hits : int;
  mutable overruns : int;
  mutable kills : int;
  mutable sheds : int;
  mutable first_detection : Model.Time.t option;
}

type tcb = {
  tid : int;
  task : Model.Task.t;
  mutable state : thread_state;
  base_prio : int;                  (* RM rank: lower value = higher priority *)
  mutable eff_prio : int;           (* after priority inheritance *)
  mutable abs_deadline : Model.Time.t; (* current job's absolute deadline *)
  mutable eff_deadline : Model.Time.t; (* EDF key, inherited under PI *)
  mutable release_time : Model.Time.t;
  mutable job_no : int;
  mutable program : instr array;
  mutable hints : sem option array; (* per-pc: next-acquire hint (the code parser's output) *)
  mutable pc : int;
  mutable remaining : Model.Time.t; (* remaining work of the current Compute *)
  (* scheduler-owned *)
  mutable node : tcb Util.Dlist.node option;
  mutable heap_handle : tcb Util.Pqueue.handle option;
  mutable queue_idx : int;          (* CSD queue index; 0 for single-queue scheds *)
  mutable home_queue_idx : int;     (* queue_idx before any PI migration *)
  (* priority inheritance *)
  mutable placeholder : tcb option; (* thread parked in my original queue slot *)
  mutable inherited : bool;
  (* semaphore protocol *)
  mutable approaching : sem option; (* the approach queue I currently sit in *)
  mutable approach_node : tcb Util.Dlist.node option;
  mutable held_sems : sem list;
  mutable waiting_on : wait; (* the object whose wake-up I am blocked for *)
  (* block-pool allocator: one cell per pool the task has allocated
     from, most recently allocated-from or freed-to first *)
  mutable mem_cells : mem_cell list;
  (* branch decisions *)
  has_branches : bool;              (* flat program contains a Br_input *)
  mutable input_word : int64;       (* per-job branch-decision word *)
  mutable branch_idx : int;         (* input bits consumed this job *)
  mutable inbox : message option;   (* delivery slot for a granted Recv *)
  (* job accounting *)
  mutable completed_job : int;
  pending_releases : (int * Model.Time.t) Queue.t;
      (* releases that arrived while a previous job was still active *)
  (* statistics *)
  mutable jobs_completed : int;
  mutable misses : int;
  mutable max_response : Model.Time.t;
  mutable total_response : Model.Time.t;
  enf : enf_state;
}

and instr =
  | Compute of Model.Time.t
  | Acquire of sem
  | Release of sem
  | Wait of waitq          (* block for an internal event *)
  | Timed_wait of waitq * Model.Time.t
      (* block for an event with a timeout: proceeds on whichever
         comes first (a clock service of SS3) *)
  | Signal of waitq        (* wake one waiter (or leave a pending signal) *)
  | Broadcast of waitq     (* wake all waiters *)
  | Send of mailbox * int array
  | Recv of mailbox
  | State_write of State_msg.t * int array
  | State_read of State_msg.t
  | Delay of Model.Time.t  (* blocking sleep via the timer service *)
  | Alloc of pool          (* grab one fixed-size block; O(1), never blocks *)
  | Free of pool           (* return one block to the pool *)
  (* Structured control flow (the program surface).  [Program.flatten]
     lowers these before the kernel ever interprets a program; the
     abstract interpreter analyzes them structurally. *)
  | If_input of instr list * instr list
      (* data-dependent two-way branch: the next bit of the job's input
         word picks the arm (1 = first, 0 = second) *)
  | Repeat of int * instr list
      (* bounded loop: the body runs exactly [n] times *)
  (* Lowered control flow (what the kernel executes).  Targets are
     absolute pcs in the flattened array and always point forward, so
     flat code is a DAG: pc only ever grows. *)
  | Br_input of int
      (* consume one input bit; 1 falls through, 0 jumps to the target *)
  | Jump of int            (* unconditional forward jump *)

(* What a blocked task waits on.  No object keeps a list of its
   waiters: a wake-up picks the best TCB waiting on it by
   [Sched.served_first]. *)
and wait =
  | No_wait
  | On_sem of sem          (* blocked in acquire *)
  | On_waitq of waitq      (* blocked in a (timed) wait *)
  | On_send of mailbox     (* blocked: mailbox full *)
  | On_recv of mailbox     (* blocked: mailbox empty *)

(* K0BA-style fixed-size block pool: capacity blocks of block_bytes
   each, handed out and returned in O(1).  Allocation never blocks —
   an exhausted pool is an OOM event, not a wait. *)
and pool = {
  pool_id : int;
  pool_block_bytes : int;
  pool_capacity : int;
  mutable pool_free : int;
}

(* One task's use of one pool: the live count the allocator enforces,
   and the observed behaviour the peak-live domination oracle checks. *)
and mem_cell = {
  mc_pool : pool;
  mutable mc_live : int; (* blocks the current job holds, not yet freed *)
  mutable mc_hw : int; (* max blocks the task had live in the pool *)
  mutable mc_leaked : int; (* blocks still live at job completion *)
  mutable mc_oom : int; (* allocations denied to this task *)
}

and sem = {
  sem_id : int;
  sem_kind : sem_kind;
  mutable holder : tcb option;    (* a mutex: free iff [None] *)
  approachers : tcb Util.Dlist.t; (* §6.3.1's special queue *)
}

and waitq = { wq_id : int; mutable pending_signals : int }

and message = { msg_data : int array; msg_src : int; msg_stamp : Model.Time.t }

and mailbox = {
  mb_id : int;
  mb_capacity : int;
  mb_queue : message Queue.t;
}

(* A scheduler instance.  Cost-returning operations report the virtual
   time the kernel must charge for them (per the paper's Table 1). *)
and sched = {
  sched_name : string;
  queue_count : int;
  s_attach : tcb array -> unit;
  s_block : tcb -> Model.Time.t;
  s_unblock : tcb -> Model.Time.t;
  s_select : unit -> tcb option * Model.Time.t;
  s_inherit : holder:tcb -> waiter:tcb -> Model.Time.t;
  s_restore : holder:tcb -> Model.Time.t;
  s_reprioritize : tcb -> Model.Time.t;
      (* the kernel changed [eff_prio]/[eff_deadline] outside the PI
         protocol (overrun demotion): re-establish queue order *)
  s_queue_class : tcb -> queue_class;
  s_check : unit -> unit; (* assert internal invariants; for tests *)
}

and queue_class = Dp of int | Fp

let fresh_enf () =
  {
    used = 0;
    probe = None;
    probe_job = 0;
    overrun_flagged = false;
    skip_next = false;
    since_shed = max_int / 2; (* no shed yet: the first one is free *)
    kill_pending = false;
    demoted = false;
    quota_flagged = false;
    quota_hits = 0;
    overruns = 0;
    kills = 0;
    sheds = 0;
    first_detection = None;
  }

(* A dormant TCB with no program, no job and zeroed statistics, at
   priority [prio] with [deadline] as its first absolute deadline, as
   [fresh_enf] is for enforcement state: [Kernel] adds the flattened
   program, its hints and branch flag, [Mock] its state. *)
let fresh_tcb ~prio ~deadline (task : Model.Task.t) =
  {
    tid = task.id;
    task;
    state = Dormant;
    base_prio = prio;
    eff_prio = prio;
    abs_deadline = deadline;
    eff_deadline = deadline;
    release_time = 0;
    job_no = 0;
    program = [||];
    hints = [||];
    pc = 0;
    remaining = 0;
    node = None;
    heap_handle = None;
    queue_idx = 0;
    home_queue_idx = 0;
    placeholder = None;
    inherited = false;
    approaching = None;
    approach_node = None;
    held_sems = [];
    waiting_on = No_wait;
    mem_cells = [];
    has_branches = false;
    input_word = 0L;
    branch_idx = 0;
    inbox = None;
    completed_job = 0;
    pending_releases = Queue.create ();
    jobs_completed = 0;
    misses = 0;
    max_response = 0;
    total_response = 0;
    enf = fresh_enf ();
  }

let is_ready tcb = match tcb.state with Ready | Running -> true
                                      | Blocked _ | Dormant -> false

(* Effective-priority comparison used by sorted (FP) queues; ties broken
   by task id to keep the order total. *)
let prio_compare a b =
  match compare a.eff_prio b.eff_prio with
  | 0 -> compare a.tid b.tid
  | c -> c

let deadline_compare a b =
  match compare a.eff_deadline b.eff_deadline with
  | 0 -> compare a.tid b.tid
  | c -> c
