open Types

(* ------------------------------------------------------------------ *)
(* Kernel state *)

(* Handler plus the static metadata the code parser / lint pass needs:
   which wait queues the handler may signal and which state messages it
   writes (the handler body itself is an opaque closure). *)
type irq_entry = {
  handler : unit -> unit;
  wakes : Types.waitq list;
  publishes : State_msg.t list;
}

type burst = {
  owner : tcb;
  started : Model.Time.t; (* may be in the (near) future: after pending
                             kernel overhead has drained *)
  completion : Sim.Engine.handle;
}

(* ------------------------------------------------------------------ *)
(* Budget enforcement (the robustness layer: what the kernel does when
   a job violates the declared WCET or arrival model the static
   analyses assumed). *)

type overrun_policy =
  | Kill_job      (* abort the offending job, release its mutexes *)
  | Skip_next     (* abort, and also shed the task's next release *)
  | Demote of int (* finish at a priority lowered by this many ranks *)
  | Notify_only   (* record the overrun, let the job run on *)

type miss_policy =
  | Miss_record    (* pre-PR behaviour: a trace statistic only *)
  | Miss_kill      (* abort the late job (deferred while it is blocked) *)
  | Miss_shed_next (* shed the task's next release *)

type enforcement = {
  budget_of : Model.Task.t -> Model.Time.t option;
      (* per-job execution budget; [None] = unenforced task *)
  policy : overrun_policy;
  miss : miss_policy;
  shed_one_in : int option;
      (* skip-over overload shedding: when a release finds the previous
         job still active, drop it — but at most one in every [k]
         releases of that task *)
}

(* Per-task live-block quotas over the block-pool allocator, kept
   separate from [enforcement] so installing one never perturbs the
   budget-enforcement paths (and [None] stays bit-identical). *)
type mem_enforcement = {
  quota_of : Model.Task.t -> int option;
      (* max blocks a job may hold live across all pools; [None] =
         unenforced task *)
  on_exceed : overrun_policy;
}

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

(* Observed per-(task, pool) allocator behaviour — the dynamic side of
   the peak-live domination oracle. *)
type mem_cell = {
  mutable mc_hw : int; (* max blocks the task had live in the pool *)
  mutable mc_leaked : int; (* blocks still live at job completion *)
  mutable mc_oom : int; (* allocations denied to this task *)
}

type t = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  tr : Sim.Trace.t;
  probe : Obs.Probe.t; (* tracepoint hub; [tr] is its built-in subscriber *)
  sched : sched;
  tcbs : tcb array; (* in RM-rank order *)
  by_tid : (int, tcb) Hashtbl.t;
  mutable running : tcb option; (* thread owning the CPU context *)
  mutable burst : burst option;
  mutable dispatch_ev : Sim.Engine.handle option;
  mutable busy_until : Model.Time.t; (* kernel-overhead cursor *)
  mutable pending_choice : tcb option;
  mutable need_dispatch : bool;
  stop_on_miss : bool;
  mutable stopped : bool;
  origin : Model.Time.t; (* phase 0 of every task; nonzero for shards
                            (re)provisioned mid-run on a shared engine *)
  tick : Model.Time.t option; (* None = event-precise timers (EMERALDS) *)
  irq_handlers : (int, irq_entry) Hashtbl.t;
  (* enforcement: [None] leaves every code path below bit-identical to
     the unenforced kernel (the fuzz differential depends on this) *)
  mutable enforcement : enforcement option;
  enf : (int, enf_state) Hashtbl.t; (* per-tid, created lazily *)
  (* block-pool allocator *)
  pools : pool list; (* every pool any program references, id-sorted *)
  mutable mem_enforcement : mem_enforcement option;
  mem_cells : (int * int, mem_cell) Hashtbl.t; (* (tid, pool_id) *)
  (* fault hooks, installed by [lib/fault]; all default to inert *)
  mutable fault_demand :
    (tid:int -> job:int -> Model.Time.t -> Model.Time.t) option;
  mutable fault_jitter : (tid:int -> job:int -> Model.Time.t) option;
  mutable fault_drop_signal : (wq_id:int -> bool) option;
  mutable drift_ppm : int; (* tick-clock drift, parts per million *)
  (* branch decisions: each job of a branchy program draws one input
     word from a stream keyed by (seed, tid, job); [Br_input] consumes
     its bits.  The root rng is split, never advanced, so words are
     independent of execution order. *)
  input_root : Util.Rng.t;
  mutable branch_oracle : (tid:int -> job:int -> idx:int -> bool option) option;
}

let now k = Sim.Engine.now k.engine
let engine k = k.engine

(* A periodic-tick kernel only notices timer expirations at tick
   boundaries; EMERALDS programs its timer for exact instants.  A
   drifting tick clock (fault hook) stretches or shrinks the effective
   tick; event-precise kernels have no tick to drift. *)
let quantize k t =
  match k.tick with
  | None -> t
  | Some q ->
    let q =
      if k.drift_ppm = 0 then q
      else max 1 (q + (q * k.drift_ppm / 1_000_000))
    in
    Util.Intmath.ceil_div t q * q

let enf_state k (tcb : tcb) =
  match Hashtbl.find_opt k.enf tcb.tid with
  | Some st -> st
  | None ->
    let st =
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
    in
    Hashtbl.add k.enf tcb.tid st;
    st
let mem_cell k (tcb : tcb) (p : pool) =
  match Hashtbl.find_opt k.mem_cells (tcb.tid, p.pool_id) with
  | Some c -> c
  | None ->
    let c = { mc_hw = 0; mc_leaked = 0; mc_oom = 0 } in
    Hashtbl.add k.mem_cells (tcb.tid, p.pool_id) c;
    c

let live_in (tcb : tcb) (p : pool) =
  match List.assq_opt p tcb.live_blocks with Some n -> n | None -> 0

let total_live (tcb : tcb) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 tcb.live_blocks

let trace k = k.tr
let probe k = k.probe
let stopped k = k.stopped

(* Every event path — releases, dispatches, deadline checks — tests
   [k.stopped] before acting, so halting leaves the shared engine's
   queue full of events that arrive and do nothing.  This is how a
   fabric crashes one shard without disturbing its engine-mates. *)
let halt k = k.stopped <- true

let tcb k ~tid =
  match Hashtbl.find_opt k.by_tid tid with
  | Some tcb -> tcb
  | None -> invalid_arg "Kernel.tcb: unknown tid"

let queue_class k tcb = k.sched.s_queue_class tcb

let check_invariants k =
  k.sched.s_check ();
  Array.iter
    (fun (tcb : tcb) ->
      (* pc stays within the program (it may sit at the length when the
         last instruction just completed) *)
      assert (tcb.pc >= 0 && tcb.pc <= Array.length tcb.program);
      assert (tcb.remaining >= 0);
      (match tcb.state with
      | Running -> (
        match k.running with
        | Some r -> assert (r == tcb)
        | None -> assert false)
      | Ready | Blocked _ | Dormant -> ());
      (* a mutex we hold must point back at us *)
      List.iter
        (fun s ->
          if s.sem_initial = 1 then
            match s.holder with
            | Some h -> assert (h == tcb)
            | None -> assert false)
        tcb.held_sems;
      (* live-block counts are non-negative *)
      List.iter (fun (_, n) -> assert (n >= 0)) tcb.live_blocks)
    k.tcbs;
  (* pool occupancy: free blocks in range, and every outstanding block
     is owned by exactly one task's live count *)
  List.iter
    (fun (p : pool) ->
      assert (p.pool_free >= 0 && p.pool_free <= p.pool_capacity);
      let owned =
        Array.fold_left (fun acc tcb -> acc + live_in tcb p) 0 k.tcbs
      in
      assert (owned = p.pool_capacity - p.pool_free))
    k.pools

(* ------------------------------------------------------------------ *)
(* Time accounting *)

let charge k category cost =
  if cost > 0 then begin
    k.busy_until <- Model.Time.max (now k) k.busy_until + cost;
    Obs.Probe.emit k.probe ~at:(now k) (Overhead { category; cost })
  end

(* Stop the running thread's compute burst, accounting the work it
   actually performed.  Idempotent per event: [burst] is cleared.
   If the burst has in fact just finished (another event fired at the
   exact completion instant, before the completion event), the pending
   completion event is left in place so the program still advances. *)
let interrupt_burst k =
  match k.burst with
  | None -> ()
  | Some b ->
    let executed =
      Util.Intmath.clamp ~lo:0 ~hi:b.owner.remaining (now k - b.started)
    in
    b.owner.remaining <- b.owner.remaining - executed;
    Sim.Trace.add_busy k.tr executed;
    (match k.enforcement with
    | None -> ()
    | Some _ ->
      (* bank the executed time against the job's budget and disarm the
         budget probe — it is re-armed when the burst next resumes *)
      let st = enf_state k b.owner in
      st.used <- Model.Time.add st.used executed;
      (match st.probe with
      | Some h ->
        ignore (Sim.Engine.cancel k.engine h);
        st.probe <- None
      | None -> ()));
    if b.owner.remaining > 0 then ignore (Sim.Engine.cancel k.engine b.completion);
    k.burst <- None

(* Invoke the scheduler: the paper's per-operation t_s.  The selection
   is remembered; the dispatch event acts on the latest one. *)
let select_now k =
  let choice, cost = k.sched.s_select () in
  charge k Sim.Trace.Ovh_sched_select cost;
  k.pending_choice <- choice;
  k.need_dispatch <- true

(* ------------------------------------------------------------------ *)
(* Thread state transitions *)

let block_thread k tcb ~reason ~dormant =
  assert (is_ready tcb);
  tcb.state <- (if dormant then Dormant else Blocked reason);
  charge k Sim.Trace.Ovh_sched_block (k.sched.s_block tcb);
  Obs.Probe.emit k.probe ~at:(now k) (Thread_block { tid = tcb.tid; reason });
  select_now k

let unblock_thread k tcb =
  (match tcb.state with
  | Blocked _ | Dormant -> ()
  | Ready | Running -> assert false);
  tcb.state <- Ready;
  charge k Sim.Trace.Ovh_sched_unblock (k.sched.s_unblock tcb);
  Obs.Probe.emit k.probe ~at:(now k) (Thread_unblock { tid = tcb.tid });
  select_now k

(* ------------------------------------------------------------------ *)
(* Wait-list helpers *)

let insert_by_prio list tcb =
  assert (tcb.wait_node = None);
  let node =
    match Util.Dlist.find_node (fun x -> prio_compare x tcb > 0) list with
    | Some anchor -> Util.Dlist.insert_before list anchor tcb
    | None -> Util.Dlist.push_back list tcb
  in
  tcb.wait_node <- Some node

let take_first_waiter list =
  match Util.Dlist.first list with
  | None -> None
  | Some node ->
    let w = Util.Dlist.value node in
    Util.Dlist.remove list node;
    w.wait_node <- None;
    Some w

(* ------------------------------------------------------------------ *)
(* Priority inheritance *)

let rec do_inherit k ~holder ~waiter =
  if
    waiter.eff_prio < holder.eff_prio
    || waiter.eff_deadline < holder.eff_deadline
  then begin
    charge k Sim.Trace.Ovh_pi (k.sched.s_inherit ~holder ~waiter);
    Obs.Probe.emit k.probe ~at:(now k)
      (Priority_inherit { holder = holder.tid; from_tid = waiter.tid });
    (* Transitive chains: the holder may itself be queued on another
       semaphore — its position there follows its new priority, and the
       inner holder inherits in turn. *)
    match holder.waiting_on with
    | Some inner ->
      (match holder.wait_node with
      | Some node ->
        Util.Dlist.remove inner.waiters node;
        holder.wait_node <- None;
        insert_by_prio inner.waiters holder
      | None -> ());
      (match inner.holder with
      | Some inner_holder -> do_inherit k ~holder:inner_holder ~waiter:holder
      | None -> ())
    | None -> ()
  end

let restore_prio k holder =
  if holder.inherited then begin
    charge k Sim.Trace.Ovh_pi (k.sched.s_restore ~holder);
    Obs.Probe.emit k.probe ~at:(now k) (Priority_restore { holder = holder.tid });
    (* Re-establish inheritance still owed to waiters of other
       semaphores this thread holds. *)
    let redo s =
      Util.Dlist.iter (fun w -> do_inherit k ~holder ~waiter:w) s.waiters
    in
    List.iter redo holder.held_sems
  end

let leave_approachers tcb =
  match (tcb.approaching, tcb.approach_node) with
  | Some s, Some node ->
    Util.Dlist.remove s.approachers node;
    tcb.approaching <- None;
    tcb.approach_node <- None
  | None, None -> ()
  | Some _, None | None, Some _ -> assert false

let join_approachers tcb s =
  leave_approachers tcb;
  tcb.approaching <- Some s;
  tcb.approach_node <- Some (Util.Dlist.push_back s.approachers tcb)

(* ------------------------------------------------------------------ *)
(* Semaphores (§6) *)

(* §6.3.1: while S has no free unit, no thread that has completed its
   pre-acquire blocking call may run toward its own acquire. *)
let park_approachers k s ~except =
  if s.sem_kind = Emeralds && s.sem_value = 0 then
    Util.Dlist.iter
      (fun a ->
        if a != except && is_ready a then begin
          block_thread k a ~reason:"approach" ~dormant:false;
          Obs.Probe.emit k.probe ~at:(now k)
            (Approach_parked { tid = a.tid; sem = s.sem_id })
        end)
      s.approachers

let sem_acquire k tcb s =
  charge k Sim.Trace.Ovh_sem (Charge.service k.cost Charge.Sem ~words:0);
  leave_approachers tcb;
  if s.sem_value > 0 then begin
    s.sem_value <- s.sem_value - 1;
    if s.sem_initial = 1 then begin
      s.holder <- Some tcb;
      tcb.held_sems <- s :: tcb.held_sems
    end;
    Obs.Probe.emit k.probe ~at:(now k)
      (Sem_acquired { tid = tcb.tid; sem = s.sem_id });
    park_approachers k s ~except:tcb;
    `Granted
  end
  else begin
    Obs.Probe.emit k.probe ~at:(now k)
      (Sem_blocked { tid = tcb.tid; sem = s.sem_id });
    (match s.holder with
    | Some holder ->
      assert (holder != tcb);
      do_inherit k ~holder ~waiter:tcb
    | None -> () (* counting semaphore: no single thread to inherit into *));
    insert_by_prio s.waiters tcb;
    tcb.waiting_on <- Some s;
    block_thread k tcb ~reason:"sem" ~dormant:false;
    `Blocked
  end

let sem_release k tcb s =
  if s.sem_initial = 1 then (
    match s.holder with
    | Some h when h == tcb -> ()
    | Some _ | None -> invalid_arg "Kernel: release of a semaphore not held");
  charge k Sim.Trace.Ovh_sem (Charge.service k.cost Charge.Sem ~words:0);
  Obs.Probe.emit k.probe ~at:(now k)
    (Sem_released { tid = tcb.tid; sem = s.sem_id });
  tcb.held_sems <- List.filter (fun x -> x != s) tcb.held_sems;
  s.holder <- None;
  let was_inherited = tcb.inherited in
  restore_prio k tcb;
  match take_first_waiter s.waiters with
  | Some w ->
    (* Hand the unit straight to the highest-priority waiter; its
       acquire call completes as part of this release (Figure 7's
       "unblock T2"). *)
    if s.sem_initial = 1 then begin
      s.holder <- Some w;
      w.held_sems <- s :: w.held_sems
    end;
    w.waiting_on <- None;
    w.pc <- w.pc + 1;
    Obs.Probe.emit k.probe ~at:(now k)
      (Sem_acquired { tid = w.tid; sem = s.sem_id });
    unblock_thread k w;
    (* The wait list is rank-sorted, so the new holder already dominates
       every remaining waiter's rank — but a remaining waiter's
       *deadline* component may still be tighter.  Re-establish
       inheritance so the holder's effective deadline is the min over
       the queue it now blocks. *)
    if s.sem_initial = 1 then
      Util.Dlist.iter (fun w2 -> do_inherit k ~holder:w ~waiter:w2) s.waiters
  | None ->
    (* A unit is free again: release the approach queue (§6.3.1). *)
    s.sem_value <- s.sem_value + 1;
    let woke = ref false in
    if s.sem_kind = Emeralds then
      Util.Dlist.iter
        (fun a ->
          match a.state with
          | Blocked "approach" ->
            woke := true;
            unblock_thread k a
          | Blocked _ | Ready | Running | Dormant -> ())
        s.approachers;
    (* If nothing was woken but the holder dropped an inherited
       priority, the scheduler must still re-evaluate. *)
    if (not !woke) && was_inherited then select_now k

(* Called when a thread's blocking call (Wait/Delay) completes and its
   pc has been advanced past it.  [hint] is the code-parser annotation:
   the semaphore the upcoming acquire will target (§6.2). *)
let complete_blocking_call k tcb hint =
  match hint with
  | Some s when s.sem_kind = Emeralds -> (
    join_approachers tcb s;
    match if s.sem_value = 0 then Some s else None with
    | Some s -> (
      (* The semaphore is taken: inherit now and keep the thread
         blocked — this is the eliminated context switch C2. *)
      (match s.holder with
      | Some holder -> do_inherit k ~holder ~waiter:tcb
      | None -> ());
      match tcb.state with
      | Blocked _ ->
        tcb.state <- Blocked "approach";
        Obs.Probe.emit k.probe ~at:(now k)
          (Approach_parked { tid = tcb.tid; sem = s.sem_id });
        Obs.Probe.emit k.probe ~at:(now k)
          (Note
             (Printf.sprintf "tau%d held back awaiting sem%d" tcb.tid
                s.sem_id));
        (* The holder's priority may have risen above the running
           thread's. *)
        select_now k
      | Ready | Running ->
        (* Completed the call without blocking (the signal was already
           pending) while S is locked: park it (§6.3.1, case B fix). *)
        block_thread k tcb ~reason:"approach" ~dormant:false;
        Obs.Probe.emit k.probe ~at:(now k)
          (Approach_parked { tid = tcb.tid; sem = s.sem_id })
      | Dormant -> assert false)
    | None -> (
      match tcb.state with
      | Blocked _ -> unblock_thread k tcb
      | Ready | Running -> ()
      | Dormant -> assert false))
  | Some _ | None -> (
    match tcb.state with
    | Blocked _ -> unblock_thread k tcb
    | Ready | Running -> ()
    | Dormant -> assert false)

(* ------------------------------------------------------------------ *)
(* Wait queues and signals *)

let do_signal k wq =
  let dropped =
    match k.fault_drop_signal with
    | None -> false
    | Some f -> f ~wq_id:wq.wq_id
  in
  if dropped then
    Obs.Probe.emit k.probe ~at:(now k)
      (Note (Printf.sprintf "signal lost on waitq%d (fault)" wq.wq_id))
  else
    match take_first_waiter wq.wq_waiters with
    | Some w ->
      let hint = w.hints.(w.pc) in
      w.pc <- w.pc + 1;
      complete_blocking_call k w hint
    | None -> wq.pending_signals <- wq.pending_signals + 1

let do_broadcast k wq =
  let rec drain () =
    match take_first_waiter wq.wq_waiters with
    | Some w ->
      let hint = w.hints.(w.pc) in
      w.pc <- w.pc + 1;
      complete_blocking_call k w hint;
      drain ()
    | None -> ()
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Mailboxes *)

let deliver k receiver msg mb =
  receiver.inbox <- Some msg;
  receiver.pc <- receiver.pc + 1;
  Obs.Probe.emit k.probe ~at:(now k)
    (Msg_received
       {
         tid = receiver.tid;
         mailbox = mb.mb_id;
         words = Array.length msg.msg_data;
         queued_for = now k - msg.msg_stamp;
       })

let mb_send k tcb mb data =
  charge k Sim.Trace.Ovh_ipc
    (Charge.service k.cost Charge.Send ~words:(Array.length data));
  let msg = { msg_data = Array.copy data; msg_src = tcb.tid; msg_stamp = now k } in
  match take_first_waiter mb.mb_receivers with
  | Some receiver ->
    Obs.Probe.emit k.probe ~at:(now k)
      (Msg_sent { tid = tcb.tid; mailbox = mb.mb_id; words = Array.length data });
    deliver k receiver msg mb;
    unblock_thread k receiver;
    `Sent
  | None ->
    if Queue.length mb.mb_queue < mb.mb_capacity then begin
      Queue.push msg mb.mb_queue;
      Obs.Probe.emit k.probe ~at:(now k)
        (Msg_sent { tid = tcb.tid; mailbox = mb.mb_id; words = Array.length data });
      `Sent
    end
    else begin
      insert_by_prio mb.mb_senders tcb;
      block_thread k tcb ~reason:"mbox-full" ~dormant:false;
      `Blocked
    end

let mb_recv k tcb mb =
  (* the floor now; a queued message adds its copy below *)
  charge k Sim.Trace.Ovh_ipc (Charge.service_floor k.cost Charge.Recv ~words:0);
  if Queue.is_empty mb.mb_queue then begin
    insert_by_prio mb.mb_receivers tcb;
    block_thread k tcb ~reason:"mbox-empty" ~dormant:false;
    `Blocked
  end
  else begin
    let msg = Queue.pop mb.mb_queue in
    let words = Array.length msg.msg_data in
    charge k Sim.Trace.Ovh_ipc
      (Charge.service k.cost Charge.Recv ~words
      - Charge.service_floor k.cost Charge.Recv ~words);
    tcb.inbox <- Some msg;
    Obs.Probe.emit k.probe ~at:(now k)
      (Msg_received
         {
           tid = tcb.tid;
           mailbox = mb.mb_id;
           words = Array.length msg.msg_data;
           queued_for = now k - msg.msg_stamp;
         });
    (* Space opened up: complete the first blocked sender's call. *)
    (match take_first_waiter mb.mb_senders with
    | Some sender -> (
      match sender.program.(sender.pc) with
      | Send (mb', data) when mb' == mb ->
        let msg' =
          { msg_data = Array.copy data; msg_src = sender.tid; msg_stamp = now k }
        in
        Queue.push msg' mb.mb_queue;
        sender.pc <- sender.pc + 1;
        Obs.Probe.emit k.probe ~at:(now k)
          (Msg_sent
             { tid = sender.tid; mailbox = mb.mb_id; words = Array.length data });
        unblock_thread k sender
      | _ -> assert false)
    | None -> ());
    `Got
  end

(* ------------------------------------------------------------------ *)
(* Job lifecycle *)

let rec schedule_deadline_check k tcb ~job ~deadline =
  let check () =
    if (not k.stopped) && tcb.completed_job < job then begin
      tcb.misses <- tcb.misses + 1;
      Obs.Probe.emit k.probe ~at:(now k) (Deadline_miss { tid = tcb.tid; job; lateness = 0 });
      (match k.enforcement with
      | None -> ()
      | Some e -> (
        let st = enf_state k tcb in
        if st.first_detection = None then st.first_detection <- Some (now k);
        match e.miss with
        | Miss_record -> ()
        | Miss_shed_next -> st.skip_next <- true
        | Miss_kill ->
          (kernel_event k (fun () ->
               charge k Sim.Trace.Ovh_timer k.cost.timer_service;
               if tcb.completed_job < job && tcb.job_no = job then
                 if is_ready tcb then kill_job k tcb
                 else
                   (* a blocked late job cannot be unlinked from its
                      wait list here; it dies when next dispatched *)
                   st.kill_pending <- true))
            ()));
      if k.stop_on_miss then k.stopped <- true
    end
  in
  (* Probe 1 ns after the deadline so a job completing exactly at its
     deadline (same-instant events) counts as meeting it.  A release
     admitted past its own deadline (a stale pending release drained
     after an overrun) probes now rather than synchronously: the miss
     policy may kill the job and start the next one, which must not
     re-enter the admit/begin chain that is still on the stack. *)
  let check_at = Model.Time.max (now k) (deadline + 1) in
  ignore (Sim.Engine.schedule k.engine ~at:check_at check)

and begin_job k tcb ~job ~release =
  tcb.job_no <- job;
  tcb.release_time <- release;
  tcb.pc <- 0;
  tcb.remaining <- 0;
  tcb.branch_idx <- 0;
  (* Branch-free programs draw nothing and emit nothing, so their
     traces stay bit-identical to the pre-control-flow kernel. *)
  if tcb.has_branches then begin
    tcb.input_word <-
      Util.Rng.bits64 (Util.Rng.split (Util.Rng.split k.input_root tcb.tid) job);
    Obs.Probe.emit k.probe ~at:(now k)
      (Input_word { tid = tcb.tid; job; word = tcb.input_word })
  end;
  tcb.abs_deadline <- release + tcb.task.deadline;
  if not tcb.inherited then tcb.eff_deadline <- tcb.abs_deadline;
  (match k.enforcement with
  | None -> ()
  | Some _ ->
    let st = enf_state k tcb in
    st.used <- 0;
    st.overrun_flagged <- false;
    st.kill_pending <- false;
    (match st.probe with
    | Some h ->
      ignore (Sim.Engine.cancel k.engine h);
      st.probe <- None
    | None -> ());
    if st.demoted then begin
      st.demoted <- false;
      if not tcb.inherited then begin
        tcb.eff_prio <- tcb.base_prio;
        tcb.eff_deadline <- tcb.abs_deadline;
        charge k Sim.Trace.Ovh_sched_demote (k.sched.s_reprioritize tcb)
      end
    end);
  (match k.mem_enforcement with
  | None -> ()
  | Some _ -> (enf_state k tcb).quota_flagged <- false);
  Obs.Probe.emit k.probe ~at:(now k)
    (Job_release { tid = tcb.tid; job; deadline = tcb.abs_deadline });
  schedule_deadline_check k tcb ~job ~deadline:tcb.abs_deadline

(* ------------------------------------------------------------------ *)
(* The interpreter *)

and run_instrs k tcb =
  if k.stopped then ()
  else if consume_kill_pending k tcb then ()
  else if tcb.pc >= Array.length tcb.program then job_complete k tcb
  else
    let step () =
      tcb.pc <- tcb.pc + 1;
      run_instrs k tcb
    in
    let instr = tcb.program.(tcb.pc) in
    (* the trap: every kernel call but [Delay] pays [syscall_entry] *)
    charge k Sim.Trace.Ovh_syscall (Charge.entry k.cost (Charge.call instr));
    match instr with
    | Compute w ->
      (* WCET-overrun fault: perturb the demand, but only when the
         instruction first starts (a resumed burst keeps its residue) *)
      let w =
        if tcb.remaining > 0 then w
        else
          match k.fault_demand with
          | None -> w
          | Some f -> f ~tid:tcb.tid ~job:tcb.job_no w
      in
      if w <= 0 then step ()
      else begin
        if tcb.remaining <= 0 then tcb.remaining <- w;
        start_compute k tcb
      end
    | Acquire s -> (
      match sem_acquire k tcb s with `Granted -> step () | `Blocked -> ())
    | Release s ->
      sem_release k tcb s;
      step ()
    | Wait wq ->
      if wq.pending_signals > 0 then begin
        wq.pending_signals <- wq.pending_signals - 1;
        let hint = tcb.hints.(tcb.pc) in
        tcb.pc <- tcb.pc + 1;
        complete_blocking_call k tcb hint;
        if is_ready tcb then run_instrs k tcb
      end
      else begin
        insert_by_prio wq.wq_waiters tcb;
        block_thread k tcb ~reason:"wait" ~dormant:false
      end
    | Timed_wait (wq, d) ->
      if wq.pending_signals > 0 then begin
        wq.pending_signals <- wq.pending_signals - 1;
        let hint = tcb.hints.(tcb.pc) in
        tcb.pc <- tcb.pc + 1;
        complete_blocking_call k tcb hint;
        if is_ready tcb then run_instrs k tcb
      end
      else begin
        let armed_job = tcb.job_no and armed_pc = tcb.pc in
        let hint = tcb.hints.(tcb.pc) in
        insert_by_prio wq.wq_waiters tcb;
        block_thread k tcb ~reason:"wait" ~dormant:false;
        charge k Sim.Trace.Ovh_timer
          (Charge.service k.cost Charge.Timed_wait ~words:0);
        let timeout () =
          (* fire only if the very same wait is still pending *)
          let still_waiting =
            tcb.job_no = armed_job && tcb.pc = armed_pc
            &&
            match tcb.wait_node with
            | Some node -> Util.Dlist.mem wq.wq_waiters node
            | None -> false
          in
          if still_waiting then begin
            (match tcb.wait_node with
            | Some node ->
              Util.Dlist.remove wq.wq_waiters node;
              tcb.wait_node <- None
            | None -> ());
            tcb.pc <- tcb.pc + 1;
            complete_blocking_call k tcb hint
          end
        in
        ignore
          (Sim.Engine.schedule k.engine
             ~at:(quantize k (now k + d))
             (kernel_event k timeout))
      end
    | Signal wq ->
      do_signal k wq;
      step ()
    | Broadcast wq ->
      do_broadcast k wq;
      step ()
    | Send (mb, data) -> (
      match mb_send k tcb mb data with `Sent -> step () | `Blocked -> ())
    | Recv mb -> (
      match mb_recv k tcb mb with `Got -> step () | `Blocked -> ())
    | State_write (sm, data) ->
      charge k Sim.Trace.Ovh_ipc
        (Charge.service k.cost Charge.State_write ~words:(State_msg.words sm));
      State_msg.write sm data;
      Obs.Probe.emit k.probe ~at:(now k)
        (State_written { tid = tcb.tid; state = State_msg.id sm; seq = State_msg.seq sm });
      step ()
    | State_read sm ->
      charge k Sim.Trace.Ovh_ipc
        (Charge.service k.cost Charge.State_read ~words:(State_msg.words sm));
      ignore (State_msg.read sm);
      Obs.Probe.emit k.probe ~at:(now k)
        (State_read { tid = tcb.tid; state = State_msg.id sm; seq = State_msg.seq sm });
      step ()
    | Delay d ->
      charge k Sim.Trace.Ovh_timer (Charge.service k.cost Charge.Delay ~words:0);
      let hint = tcb.hints.(tcb.pc) in
      block_thread k tcb ~reason:"delay" ~dormant:false;
      let wake () =
        tcb.pc <- tcb.pc + 1;
        complete_blocking_call k tcb hint
      in
      ignore
        (Sim.Engine.schedule k.engine
           ~at:(quantize k (now k + d))
           (kernel_event k wake))
    | Alloc p ->
      charge k Sim.Trace.Ovh_pool (Charge.service k.cost Charge.Pool ~words:0);
      if p.pool_free > 0 then begin
        p.pool_free <- p.pool_free - 1;
        let live = p.pool_capacity - p.pool_free in
        p.pool_high_water <- max p.pool_high_water live;
        let mine = live_in tcb p + 1 in
        tcb.live_blocks <-
          (p, mine) :: List.filter (fun (q, _) -> q != p) tcb.live_blocks;
        let c = mem_cell k tcb p in
        c.mc_hw <- max c.mc_hw mine;
        Obs.Probe.emit k.probe ~at:(now k)
          (Block_alloc { tid = tcb.tid; pool = p.pool_id; live });
        let job = tcb.job_no in
        check_quota k tcb;
        (* the quota policy may have killed (and even restarted) the
           job; only the surviving job advances past its alloc *)
        if tcb.job_no = job && tcb.completed_job < job then step ()
      end
      else begin
        p.pool_failures <- p.pool_failures + 1;
        (mem_cell k tcb p).mc_oom <- (mem_cell k tcb p).mc_oom + 1;
        Obs.Probe.emit k.probe ~at:(now k)
          (Pool_oom { tid = tcb.tid; pool = p.pool_id });
        step ()
      end
    | Free p ->
      charge k Sim.Trace.Ovh_pool (Charge.service k.cost Charge.Pool ~words:0);
      let mine = live_in tcb p in
      if mine <= 0 then
        invalid_arg "Kernel: free of a block the job does not hold";
      tcb.live_blocks <-
        (p, mine - 1) :: List.filter (fun (q, _) -> q != p) tcb.live_blocks;
      p.pool_free <- p.pool_free + 1;
      Obs.Probe.emit k.probe ~at:(now k)
        (Block_free
           { tid = tcb.tid; pool = p.pool_id;
             live = p.pool_capacity - p.pool_free });
      step ()
    | Br_input target ->
      (* A user-mode conditional jump: no kernel entry, no charge.  The
         decision comes from the job's input word (or a test/replay
         oracle) and goes into the trace, so the same seed replays the
         same path bit-for-bit. *)
      let idx = tcb.branch_idx in
      tcb.branch_idx <- idx + 1;
      let word_bit =
        Int64.logand (Int64.shift_right_logical tcb.input_word (idx mod 63)) 1L
        = 1L
      in
      let taken =
        match k.branch_oracle with
        | Some f -> (
          match f ~tid:tcb.tid ~job:tcb.job_no ~idx with
          | Some b -> b
          | None -> word_bit)
        | None -> word_bit
      in
      Obs.Probe.emit k.probe ~at:(now k)
        (Branch { tid = tcb.tid; pc = tcb.pc; idx; taken });
      if taken then step ()
      else begin
        tcb.pc <- target;
        run_instrs k tcb
      end
    | Jump target ->
      tcb.pc <- target;
      run_instrs k tcb
    | If_input _ | Repeat _ ->
      invalid_arg
        "Kernel: structured instruction reached the interpreter (programs \
         must be flattened)"

and check_quota k tcb =
  match k.mem_enforcement with
  | None -> ()
  | Some me -> (
    match me.quota_of tcb.task with
    | None -> ()
    | Some quota ->
      let live = total_live tcb in
      if live > quota then begin
        let st = enf_state k tcb in
        if not st.quota_flagged then begin
          st.quota_flagged <- true;
          st.quota_hits <- st.quota_hits + 1;
          if st.first_detection = None then st.first_detection <- Some (now k);
          Obs.Probe.emit k.probe ~at:(now k)
            (Quota_exceeded { tid = tcb.tid; job = tcb.job_no; live; quota });
          match me.on_exceed with
          | Notify_only -> ()
          | Demote by -> apply_demotion k tcb ~by
          | Kill_job -> kill_job k tcb
          | Skip_next ->
            st.skip_next <- true;
            kill_job k tcb
        end
      end)

(* Blocks still live when the job ends are leaks: record them, then
   reclaim so repeated leaky jobs cannot exhaust the pool forever (the
   lint verdict and the leak trace entries stay in agreement either
   way).  [kill_job] reclaims silently — an aborted job is not a
   program leak. *)
and reclaim_blocks k tcb ~leak =
  List.iter
    (fun ((p : pool), n) ->
      if n > 0 then begin
        p.pool_free <- min p.pool_capacity (p.pool_free + n);
        if leak then begin
          (mem_cell k tcb p).mc_leaked <- (mem_cell k tcb p).mc_leaked + n;
          Obs.Probe.emit k.probe ~at:(now k)
            (Pool_leak
               { tid = tcb.tid; job = tcb.job_no; pool = p.pool_id; count = n })
        end
      end)
    tcb.live_blocks;
  tcb.live_blocks <- []

and job_complete k tcb =
  reclaim_blocks k tcb ~leak:true;
  let response = now k - tcb.release_time in
  tcb.completed_job <- tcb.job_no;
  tcb.jobs_completed <- tcb.jobs_completed + 1;
  tcb.total_response <- tcb.total_response + response;
  tcb.max_response <- Model.Time.max tcb.max_response response;
  Obs.Probe.emit k.probe ~at:(now k)
    (Job_complete { tid = tcb.tid; job = tcb.job_no; response });
  if Queue.is_empty tcb.pending_releases then
    block_thread k tcb ~reason:"dormant" ~dormant:true
  else begin
    (* A release arrived while this job overran: start it right away. *)
    let job, release = Queue.pop tcb.pending_releases in
    begin_job k tcb ~job ~release;
    run_instrs k tcb
  end

and start_compute k tcb =
  assert (k.burst = None);
  let started = Model.Time.max (now k) k.busy_until in
  let completion =
    Sim.Engine.schedule k.engine
      ~at:(started + tcb.remaining)
      (kernel_event k (fun () -> on_compute_done k tcb))
  in
  k.burst <- Some { owner = tcb; started; completion };
  match k.enforcement with
  | None -> ()
  | Some e -> arm_budget_probe k e tcb ~started

(* Arm the budget-exhaustion event for the burst just started — only
   when this burst would actually cross the budget, so exact-budget
   runs schedule nothing extra.  The probe is a raw engine event: it
   enters kernel context (and charges time) only on a real overrun,
   which keeps unfaulted traces bit-identical.  The virtual cost of
   arming is folded into the dispatch path (DESIGN.md §9); the bench
   suite measures its host-native cost. *)
and arm_budget_probe k e tcb ~started =
  match e.budget_of tcb.task with
  | None -> ()
  | Some budget ->
    let st = enf_state k tcb in
    if not st.overrun_flagged then begin
      let slack = Model.Time.max 0 (budget - st.used) in
      if slack < tcb.remaining then begin
        (* fire 1 ns past the crossing instant so using exactly the
           budget is not an overrun; tick kernels defer detection to
           the next tick boundary.  If the crossing is already banked
           from an earlier burst segment (the job blocked or was
           preempted past its budget before a boundary observed it),
           detection is overdue — fire now rather than quantizing
           forward again, which would let a job that keeps yielding
           just before each boundary overrun without bound. *)
        let fire_at =
          if st.used > budget then now k
          else Model.Time.max (now k) (quantize k (started + slack + 1))
        in
        st.probe_job <- tcb.job_no;
        st.probe <-
          Some
            (Sim.Engine.schedule k.engine ~at:fire_at (fun () ->
                 budget_probe k tcb))
      end
    end

and budget_probe k tcb =
  match k.enforcement with
  | None -> ()
  | Some e ->
    let st = enf_state k tcb in
    st.probe <- None;
    if
      (not k.stopped)
      && st.probe_job = tcb.job_no
      && tcb.completed_job < tcb.job_no
      && not st.overrun_flagged
    then
      match e.budget_of tcb.task with
      | None -> ()
      | Some budget ->
        let used_now =
          match k.burst with
          | Some b when b.owner == tcb ->
            Model.Time.add st.used
              (Util.Intmath.clamp ~lo:0 ~hi:b.owner.remaining
                 (now k - b.started))
          | Some _ | None -> st.used
        in
        if used_now > budget then
          (kernel_event k (fun () -> handle_overrun k e tcb ~budget)) ()

and handle_overrun k e tcb ~budget =
  (* [kernel_event] has interrupted the burst, so [st.used] is final *)
  let st = enf_state k tcb in
  st.overrun_flagged <- true;
  st.overruns <- st.overruns + 1;
  if st.first_detection = None then st.first_detection <- Some (now k);
  charge k Sim.Trace.Ovh_timer k.cost.timer_service;
  Obs.Probe.emit k.probe ~at:(now k)
    (Budget_overrun { tid = tcb.tid; job = tcb.job_no; used = st.used; budget });
  match e.policy with
  | Notify_only -> ()
  | Demote by -> apply_demotion k tcb ~by
  | Kill_job -> kill_job k tcb
  | Skip_next ->
    st.skip_next <- true;
    kill_job k tcb

(* Demotion defers to priority inheritance: while the thread holds an
   inherited priority, lowering it would re-introduce exactly the
   inversion PI exists to prevent, so the demotion is skipped (and a
   later PI restore resets the fields to base — the PI protocol owns
   them).  Cleared at the next release. *)
and apply_demotion k tcb ~by =
  if not tcb.inherited then begin
    let st = enf_state k tcb in
    st.demoted <- true;
    tcb.eff_prio <- tcb.base_prio + by;
    tcb.eff_deadline <- tcb.abs_deadline + (by * tcb.task.period);
    charge k Sim.Trace.Ovh_sched_demote (k.sched.s_reprioritize tcb)
  end

(* Abort the current job: drop its held mutexes (releasing them runs
   the normal handoff protocol, so no waiter is stranded), mark the job
   number consumed so the pending deadline probe stays quiet, and go
   dormant — or start the next queued release.  Stats count kills
   separately from completions.  Caller guarantees the thread is Ready
   or Running. *)
and kill_job k tcb =
  let st = enf_state k tcb in
  st.kills <- st.kills + 1;
  Obs.Probe.emit k.probe ~at:(now k) (Job_killed { tid = tcb.tid; job = tcb.job_no });
  List.iter (fun s -> sem_release k tcb s) tcb.held_sems;
  reclaim_blocks k tcb ~leak:false;
  leave_approachers tcb;
  tcb.remaining <- 0;
  tcb.pc <- Array.length tcb.program;
  tcb.completed_job <- tcb.job_no;
  if Queue.is_empty tcb.pending_releases then
    block_thread k tcb ~reason:"killed" ~dormant:true
  else begin
    let job, release = Queue.pop tcb.pending_releases in
    begin_job k tcb ~job ~release;
    if tcb.state = Running then run_instrs k tcb
  end

and consume_kill_pending k tcb =
  match k.enforcement with
  | None -> false
  | Some _ ->
    let st = enf_state k tcb in
    if st.kill_pending then begin
      st.kill_pending <- false;
      kill_job k tcb;
      true
    end
    else false

and on_compute_done k tcb =
  (* [kernel_event]'s burst accounting already banked the work. *)
  assert (tcb.remaining = 0);
  tcb.pc <- tcb.pc + 1;
  (* The dispatcher may have switched away between the instant the work
     finished and this event (same-instant race); if so, the program
     resumes from the new pc when the thread is next dispatched. *)
  match k.running with
  | Some r when r == tcb && tcb.state = Running -> run_instrs k tcb
  | Some _ | None -> ()

(* Wrap every kernel-entering event: stop the current burst, run the
   body, then make sure the CPU is re-dispatched. *)
and kernel_event k body () =
  if not k.stopped then begin
    interrupt_burst k;
    body ();
    finish k
  end

and finish k =
  if not k.stopped then begin
    (* A pure-overhead entry (e.g. an interrupt) stopped the burst
       without any scheduling op: re-run selection so the thread
       resumes. *)
    (if (not k.need_dispatch) && k.burst = None then
       match k.running with
       | Some r when r.state = Running -> select_now k
       | Some _ | None -> ());
    if k.need_dispatch then begin
      (match k.dispatch_ev with
      | Some h -> ignore (Sim.Engine.cancel k.engine h)
      | None -> ());
      let at = Model.Time.max (now k) k.busy_until in
      k.need_dispatch <- false;
      k.dispatch_ev <- Some (Sim.Engine.schedule k.engine ~at (fun () -> dispatch k))
    end
  end

and dispatch k =
  k.dispatch_ev <- None;
  if not k.stopped then begin
    let target = k.pending_choice in
    (match (k.running, target) with
    | None, None -> ()
    | Some r, Some tgt when r == tgt && r.state = Running ->
      (* Interrupt resume: the thread kept the CPU across a kernel
         entry.  A thread that blocked and was re-selected before this
         event fired is [Ready], not [Running] — it must take the full
         switch path below or it would never regain [Running] state and
         [finish]'s resume scan would skip it forever. *)
      if k.burst = None then start_thread k tgt
    | prev, _ ->
      interrupt_burst k;
      (match prev with
      | Some r ->
        Sim.Trace.set_outgoing_ready k.tr (r.state = Running);
        if r.state = Running then r.state <- Ready
      | None -> Sim.Trace.set_outgoing_ready k.tr false);
      charge k Sim.Trace.Ovh_switch k.cost.context_switch;
      (* crossing a protection domain costs an address-space switch *)
      (match (prev, target) with
      | Some a, Some b when a.task.process <> b.task.process ->
        charge k Sim.Trace.Ovh_switch_as k.cost.address_space_switch
      | _ -> ());
      Obs.Probe.emit k.probe ~at:(now k)
        (Context_switch
           {
             from_tid = Option.map (fun r -> r.tid) prev;
             to_tid = Option.map (fun tcb -> tcb.tid) target;
           });
      k.running <- target;
      (match target with
      | Some tgt ->
        (match tgt.state with
        | Ready -> ()
        | state ->
          Printf.eprintf "dispatch: tau%d in state %s\n%!" tgt.tid
            (match state with
            | Running -> "Running"
            | Blocked r -> "Blocked:" ^ r
            | Dormant -> "Dormant"
            | Ready -> "Ready");
          assert false);
        tgt.state <- Running;
        start_thread k tgt
      | None -> ()));
    finish k
  end

and start_thread k tcb =
  if tcb.pc < Array.length tcb.program && tcb.remaining > 0 then
    match tcb.program.(tcb.pc) with
    | Compute _ -> start_compute k tcb
    | _ -> run_instrs k tcb
  else run_instrs k tcb

(* ------------------------------------------------------------------ *)
(* Releases *)

(* Admit one arrival — periodic release or sporadic trigger — through
   the enforcement policy: a pending skip-next sheds it, and an arrival
   that finds the previous job still active (overload) may be shed,
   at most one in every [shed_one_in] arrivals of the task.

   [job] is the caller's nominal index (the periodic chain's, or the
   sporadic trigger's guess); the admitted job takes the next unused
   number past everything begun or queued.  Without the bump, a
   sporadic arrival steals the next periodic number and the later
   periodic release re-uses it — [begin_job] then starts a job whose
   number equals [completed_job], which silently disables its budget
   probe and deadline check (both guard on [completed_job < job]). *)
let admit_release k tcb ~job ~sporadic =
  let job =
    let last =
      Queue.fold (fun a (j, _) -> max a j) tcb.job_no tcb.pending_releases
    in
    max job (last + 1)
  in
  let disposition =
    match k.enforcement with
    | None -> `Run
    | Some e ->
      let st = enf_state k tcb in
      if st.skip_next then begin
        st.skip_next <- false;
        `Shed "skip-next"
      end
      else if tcb.state <> Dormant then (
        (* the previous job is still active: overload *)
        match e.shed_one_in with
        | Some kk when st.since_shed >= kk -> `Shed "overload"
        | Some _ | None ->
          st.since_shed <- st.since_shed + 1;
          `Run)
      else begin
        st.since_shed <- st.since_shed + 1;
        `Run
      end
  in
  match disposition with
  | `Shed reason ->
    let st = enf_state k tcb in
    st.sheds <- st.sheds + 1;
    st.since_shed <- 0;
    (* shedding is the overload *detection* acting: stamp it *)
    if st.first_detection = None then st.first_detection <- Some (now k);
    Obs.Probe.emit k.probe ~at:(now k) (Job_shed { tid = tcb.tid; job; reason })
  | `Run ->
    if tcb.state = Dormant then begin
      begin_job k tcb ~job ~release:(now k);
      unblock_thread k tcb
    end
    else begin
      Queue.push (job, now k) tcb.pending_releases;
      Obs.Probe.emit k.probe ~at:(now k)
        (Note
           (if sporadic then
              Printf.sprintf "tau%d sporadic arrival while busy" tcb.tid
            else
              Printf.sprintf "tau%d release %d while job %d active" tcb.tid
                job tcb.job_no))
    end

let rec release_event k tcb ~job () =
  admit_release k tcb ~job ~sporadic:false;
  schedule_release k tcb ~job:(job + 1)

(* Release j of a task fires at phase + (j-1) * period, overruns
   notwithstanding (periodic tasks keep their nominal spacing).  The
   release-jitter fault perturbs individual releases around the
   nominal instant, clamped so a delayed chain never schedules into
   the past. *)
and schedule_release k tcb ~job =
  let at =
    quantize k (k.origin + tcb.task.phase + ((job - 1) * tcb.task.period))
  in
  let at =
    match k.fault_jitter with
    | None -> at
    | Some f -> Model.Time.max (now k) (at + f ~tid:tcb.tid ~job)
  in
  ignore
    (Sim.Engine.schedule k.engine ~at (kernel_event k (release_event k tcb ~job)))

(* ------------------------------------------------------------------ *)
(* Construction *)

let default_program (task : Model.Task.t) = [ Compute task.wcet ]

let make_tcb ~origin rank (task : Model.Task.t) program =
  let program = Program.flatten program in
  {
    tid = task.id;
    task;
    state = Dormant;
    base_prio = rank;
    eff_prio = rank;
    abs_deadline = origin + task.phase + task.deadline;
    eff_deadline = origin + task.phase + task.deadline;
    release_time = 0;
    job_no = 0;
    program;
    hints = Program.derive_hints program;
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
    wait_node = None;
    held_sems = [];
    waiting_on = None;
    live_blocks = [];
    has_branches = Program.has_branches program;
    input_word = 0L;
    branch_idx = 0;
    inbox = None;
    completed_job = 0;
    pending_releases = Queue.create ();
    jobs_completed = 0;
    misses = 0;
    max_response = 0;
    total_response = 0;
  }

let create ?(keep_trace = true) ?(stop_on_miss = false) ?(optimized_pi = true)
    ?(priority_order = `Rm) ?(input_seed = 0) ?(origin = 0) ?tick ?programs
    ?engine ~cost ~spec ~taskset () =
  (match tick with
  | Some t when t <= 0 -> invalid_arg "Kernel.create: tick must be positive"
  | Some _ | None -> ());
  if origin < 0 then invalid_arg "Kernel.create: origin must be >= 0";
  Sched.validate_partition spec ~n_tasks:(Model.Taskset.size taskset);
  let programs =
    match programs with Some f -> f | None -> default_program
  in
  let sched = Sched.instantiate spec ~cost ~optimized_pi in
  let tasks = Array.copy (Model.Taskset.tasks taskset) in
  (match priority_order with
  | `Rm -> () (* the task set is already in RM order *)
  | `Dm -> Array.sort Model.Task.dm_compare tasks);
  let tcbs =
    Array.mapi (fun rank task -> make_tcb ~origin rank task (programs task)) tasks
  in
  let by_tid = Hashtbl.create (Array.length tcbs) in
  Array.iter (fun tcb -> Hashtbl.replace by_tid tcb.tid tcb) tcbs;
  if Hashtbl.length by_tid <> Array.length tcbs then
    invalid_arg "Kernel.create: duplicate task ids";
  let engine =
    match engine with Some e -> e | None -> Sim.Engine.create ()
  in
  (* Every pool any program references.  Pools are shared mutable
     objects like semaphores, but unlike a semaphore a pool's state is
     pure bookkeeping with no blocked threads attached, so a fresh
     kernel safely resets it (replays over one realized scenario stay
     deterministic). *)
  let pools =
    let tbl = Hashtbl.create 4 in
    Array.iter
      (fun (tcb : tcb) ->
        Array.iter
          (function
            | Alloc p | Free p -> Hashtbl.replace tbl p.pool_id p
            | _ -> ())
          tcb.program)
      tcbs;
    List.sort
      (fun (a : pool) b -> compare a.pool_id b.pool_id)
      (Hashtbl.fold (fun _ p acc -> p :: acc) tbl [])
  in
  List.iter
    (fun (p : pool) ->
      p.pool_free <- p.pool_capacity;
      p.pool_high_water <- 0;
      p.pool_failures <- 0)
    pools;
  let tr = Sim.Trace.create ~keep_entries:keep_trace () in
  let k =
    {
      engine;
      cost;
      tr;
      probe = Obs.Probe.create ~trace:tr ();
      sched;
      tcbs;
      by_tid;
      running = None;
      burst = None;
      dispatch_ev = None;
      busy_until = 0;
      pending_choice = None;
      need_dispatch = false;
      stop_on_miss;
      stopped = false;
      origin;
      tick;
      irq_handlers = Hashtbl.create 8;
      enforcement = None;
      enf = Hashtbl.create 8;
      pools;
      mem_enforcement = None;
      mem_cells = Hashtbl.create 8;
      fault_demand = None;
      fault_jitter = None;
      fault_drop_signal = None;
      drift_ppm = 0;
      input_root = Util.Rng.create ~seed:input_seed;
      branch_oracle = None;
    }
  in
  sched.s_attach tcbs;
  Array.iter (fun tcb -> schedule_release k tcb ~job:1) tcbs;
  k

let run k ~until = Sim.Engine.run_until k.engine until
let step k = Sim.Engine.step k.engine

(* ------------------------------------------------------------------ *)
(* Snapshots *)

module Snapshot = struct
  type thread_snap = {
    s_tid : int;
    s_mode : string;
    s_pc : int;
    s_remaining : int;
    s_eff_prio : int;
    s_deadline_in : int; (* abs_deadline relative to the capture instant *)
    s_held : int list;   (* sem ids, sorted *)
    s_waiting_on : int option;
    s_pending : int;     (* queued releases *)
  }

  type t = {
    residue : int;        (* clock mod hyperperiod *)
    threads : thread_snap list; (* in tid order *)
    events_in : int list; (* pending event-queue offsets, sorted *)
  }

  let mode_of (tcb : tcb) =
    match tcb.state with
    | Ready -> "ready"
    | Running -> "running"
    | Dormant -> "dormant"
    | Blocked r -> "blocked:" ^ r

  let capture k =
    let t0 = now k in
    let hyper =
      Util.Intmath.lcm_list
        (Array.to_list (Array.map (fun (tcb : tcb) -> tcb.task.period) k.tcbs))
    in
    let threads =
      Array.to_list
        (Array.map
           (fun (tcb : tcb) ->
             {
               s_tid = tcb.tid;
               s_mode = mode_of tcb;
               s_pc = tcb.pc;
               s_remaining = tcb.remaining;
               s_eff_prio = tcb.eff_prio;
               s_deadline_in = tcb.abs_deadline - t0;
               s_held =
                 List.sort compare
                   (List.map (fun s -> s.sem_id) tcb.held_sems);
               s_waiting_on =
                 Option.map (fun s -> s.sem_id) tcb.waiting_on;
               s_pending = Queue.length tcb.pending_releases;
             })
           k.tcbs)
      |> List.sort (fun a b -> compare a.s_tid b.s_tid)
    in
    {
      residue = (if hyper > 0 then t0 mod hyper else t0);
      threads;
      events_in =
        List.map (fun at -> at - t0) (Sim.Engine.pending_times k.engine);
    }

  let hash t = Digest.to_hex (Digest.string (Marshal.to_string t []))
  let equal a b = a = b
  let compare = Stdlib.compare

  let thread t ~tid =
    List.find_opt (fun th -> th.s_tid = tid) t.threads
    |> Option.map (fun th ->
           (th.s_mode, th.s_pc, th.s_remaining, th.s_eff_prio, th.s_held))

  let pp ppf t =
    Format.fprintf ppf "@[<v>clock residue %dns, %d pending events@,"
      t.residue
      (List.length t.events_in);
    List.iter
      (fun th ->
        Format.fprintf ppf
          "tau%-2d %-12s pc=%-2d rem=%-8d eff=%-2d held=[%s]%s@," th.s_tid
          th.s_mode th.s_pc th.s_remaining th.s_eff_prio
          (String.concat ";" (List.map string_of_int th.s_held))
          (match th.s_waiting_on with
          | Some s -> Printf.sprintf " waiting-on=sem%d" s
          | None -> ""))
      t.threads;
    Format.fprintf ppf "@]"
end

(* ------------------------------------------------------------------ *)
(* Statistics *)

type task_stats = {
  tid : int;
  jobs_completed : int;
  misses : int;
  max_response : Model.Time.t;
  mean_response : Model.Time.t;
}

let stats k =
  Array.to_list
    (Array.map
       (fun (tcb : tcb) ->
         {
           tid = tcb.tid;
           jobs_completed = tcb.jobs_completed;
           misses = tcb.misses;
           max_response = tcb.max_response;
           mean_response =
             (if tcb.jobs_completed = 0 then 0
              else tcb.total_response / tcb.jobs_completed);
         })
       k.tcbs)

let total_misses k =
  Array.fold_left (fun acc (tcb : tcb) -> acc + tcb.misses) 0 k.tcbs

(* ------------------------------------------------------------------ *)
(* Enforcement and fault configuration *)

let set_enforcement k e =
  (match e with
  | Some { shed_one_in = Some kk; _ } when kk <= 0 ->
    invalid_arg "Kernel.set_enforcement: shed_one_in must be positive"
  | Some { policy = Demote by; _ } when by <= 0 ->
    invalid_arg "Kernel.set_enforcement: Demote must lower the priority"
  | Some _ | None -> ());
  k.enforcement <- e

let set_mem_enforcement k e =
  (match e with
  | Some { on_exceed = Demote by; _ } when by <= 0 ->
    invalid_arg "Kernel.set_mem_enforcement: Demote must lower the priority"
  | Some _ | None -> ());
  k.mem_enforcement <- e

let set_demand_fault k f = k.fault_demand <- f

(* Force branch outcomes (tests, counterexample replay): the oracle is
   consulted per consumed input bit; [None] falls back to the word. *)
let set_branch_oracle k f = k.branch_oracle <- f
let set_release_jitter k f = k.fault_jitter <- f
let set_signal_drop k f = k.fault_drop_signal <- f
let set_drift_ppm k ppm = k.drift_ppm <- ppm

type enf_stats = {
  e_tid : int;
  e_overruns : int;
  e_kills : int;
  e_sheds : int;
  e_budget_used : Model.Time.t; (* current/last job *)
  e_first_detection : Model.Time.t option;
}

let enforcement_stats k =
  Array.to_list
    (Array.map
       (fun (tcb : tcb) ->
         match Hashtbl.find_opt k.enf tcb.tid with
         | None ->
           {
             e_tid = tcb.tid;
             e_overruns = 0;
             e_kills = 0;
             e_sheds = 0;
             e_budget_used = 0;
             e_first_detection = None;
           }
         | Some st ->
           {
             e_tid = tcb.tid;
             e_overruns = st.overruns;
             e_kills = st.kills;
             e_sheds = st.sheds;
             e_budget_used = st.used;
             e_first_detection = st.first_detection;
           })
       k.tcbs)

type mem_stats = {
  m_tid : int;
  m_pool : int; (* pool id *)
  m_high_water : int; (* max blocks this task had live in the pool *)
  m_leaked : int; (* blocks still live at a job completion (reclaimed) *)
  m_oom : int; (* allocations denied to this task *)
}

let mem_stats k =
  Hashtbl.fold
    (fun (tid, pool) (c : mem_cell) acc ->
      {
        m_tid = tid;
        m_pool = pool;
        m_high_water = c.mc_hw;
        m_leaked = c.mc_leaked;
        m_oom = c.mc_oom;
      }
      :: acc)
    k.mem_cells []
  |> List.sort (fun a b -> compare (a.m_pool, a.m_tid) (b.m_pool, b.m_tid))

let pool_stats k = k.pools

let quota_hits k =
  Array.to_list
    (Array.map
       (fun (tcb : tcb) ->
         ( tcb.tid,
           match Hashtbl.find_opt k.enf tcb.tid with
           | Some st -> st.quota_hits
           | None -> 0 ))
       k.tcbs)

(* ------------------------------------------------------------------ *)
(* Environment hooks *)

let register_irq k ~irq ?(signals = []) ?(writes = []) ~handler () =
  if Hashtbl.mem k.irq_handlers irq then
    invalid_arg "Kernel.register_irq: duplicate irq";
  Hashtbl.replace k.irq_handlers irq
    { handler; wakes = signals; publishes = writes }

let raise_irq_at k ~at ~irq =
  let body () =
    charge k Sim.Trace.Ovh_irq k.cost.interrupt_entry;
    Obs.Probe.emit k.probe ~at:(now k) (Interrupt { irq });
    (Hashtbl.find k.irq_handlers irq).handler ()
  in
  ignore (Sim.Engine.schedule k.engine ~at (kernel_event k body))

let irq_signals k =
  Hashtbl.fold (fun _ e acc -> e.wakes @ acc) k.irq_handlers []

let irq_state_writes k =
  Hashtbl.fold (fun _ e acc -> e.publishes @ acc) k.irq_handlers []

let signal_waitq k wq = do_signal k wq

let at k ~at:time body =
  ignore (Sim.Engine.schedule k.engine ~at:time (kernel_event k body))

let trigger_job_at k ~at:time ~tid =
  let tcb = tcb k ~tid in
  let body () =
    let job = tcb.job_no + Queue.length tcb.pending_releases + 1 in
    admit_release k tcb ~job ~sporadic:true
  in
  ignore (Sim.Engine.schedule k.engine ~at:time (kernel_event k body))
