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
  mutable stopped : bool;
  origin : Model.Time.t; (* phase 0 of every task; nonzero for shards
                            (re)provisioned mid-run on a shared engine *)
  irq_handlers : (int, irq_entry) Hashtbl.t;
  (* enforcement: [None] leaves every code path below bit-identical to
     the unenforced kernel (the fuzz differential depends on this); the
     per-task state lives in each TCB's [enf] *)
  mutable enforcement : enforcement option;
  (* block-pool allocator *)
  pools : pool list; (* every pool any program references, id-sorted *)
  mutable mem_enforcement : mem_enforcement option;
  (* fault hooks, installed by [lib/fault]; all default to inert *)
  mutable fault_demand :
    (tid:int -> job:int -> Model.Time.t -> Model.Time.t) option;
  mutable fault_jitter : (tid:int -> job:int -> Model.Time.t) option;
  mutable fault_drop_signal : (wq_id:int -> bool) option;
  (* branch decisions: each job of a branchy program draws one input
     word from a stream keyed by (seed, tid, job); [Br_input] consumes
     its bits.  The root rng is split, never advanced, so words are
     independent of execution order. *)
  input_root : Util.Rng.t;
  mutable branch_oracle : (tid:int -> job:int -> idx:int -> bool option) option;
}

let now k = Sim.Engine.now k.engine

let find_cell (tcb : tcb) (p : pool) =
  List.find_opt (fun c -> c.mc_pool == p) tcb.mem_cells

(* Keep [mem_cells] most recently touched first: a job's leaks are
   reported in that order. *)
let to_front (tcb : tcb) c =
  match tcb.mem_cells with
  | c' :: _ when c' == c -> ()
  | cells -> tcb.mem_cells <- c :: List.filter (fun x -> x != c) cells

let total_live (tcb : tcb) =
  List.fold_left (fun acc c -> acc + c.mc_live) 0 tcb.mem_cells

(* The first violation of any kind the enforcement layer detected. *)
let detect k (tcb : tcb) =
  if tcb.enf.first_detection = None then tcb.enf.first_detection <- Some (now k)

let disarm_probe k (st : enf_state) =
  match st.probe with
  | Some h ->
    ignore (Sim.Engine.cancel k.engine h);
    st.probe <- None
  | None -> ()

let trace k = k.tr
let probe k = k.probe

(* Every event path — releases, dispatches, deadline checks — tests
   [k.stopped] before acting, so halting leaves the shared engine's
   queue full of events that arrive and do nothing.  This is how a
   fabric crashes one shard without disturbing its engine-mates. *)
let halt k = k.stopped <- true

let tcb k ~tid =
  match Hashtbl.find_opt k.by_tid tid with
  | Some tcb -> tcb
  | None -> invalid_arg "Kernel.tcb: unknown tid"

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
      (match (tcb.waiting_on, tcb.state) with
      | No_wait, _ | _, Blocked _ -> ()
      | _ -> assert false);
      (* a mutex we hold must point back at us *)
      List.iter
        (fun s ->
          match s.holder with
          | Some h -> assert (h == tcb)
          | None -> assert false)
        tcb.held_sems;
      (* live-block counts are non-negative *)
      List.iter (fun c -> assert (c.mc_live >= 0)) tcb.mem_cells)
    k.tcbs;
  (* pool occupancy: free blocks in range, and every outstanding block
     is owned by exactly one task's live count *)
  List.iter
    (fun (p : pool) ->
      assert (p.pool_free >= 0 && p.pool_free <= p.pool_capacity);
      let owned =
        Array.fold_left
          (fun acc tcb ->
            match find_cell tcb p with Some c -> acc + c.mc_live | None -> acc)
          0 k.tcbs
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
    if Option.is_some k.enforcement then begin
      (* bank the executed time against the job's budget and disarm the
         budget probe — it is re-armed when the burst next resumes *)
      let st = b.owner.enf in
      st.used <- Model.Time.add st.used executed;
      disarm_probe k st
    end;
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
(* Waiters *)

(* The tasks whose wait [on] matches, best served first. *)
let waiters k on =
  let key t =
    Sched.served_first (k.sched.s_queue_class t) ~rank:t.eff_prio
      ~deadline:t.eff_deadline ~base:t.base_prio
  in
  Array.fold_right (fun t l -> if on t.waiting_on then t :: l else l) k.tcbs []
  |> List.sort (fun a b -> compare (key a) (key b))

(* The best-served task whose wait [on] matches, its wait over. *)
let take_waiter k on =
  match waiters k on with
  | w :: _ ->
    w.waiting_on <- No_wait;
    Some w
  | [] -> None

let on_sem s = function On_sem x -> x == s | _ -> false

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
    (* Transitive chains: the holder may itself be blocked on another
       semaphore, whose holder inherits in turn. *)
    match holder.waiting_on with
    | On_sem { holder = Some inner; _ } ->
      do_inherit k ~holder:inner ~waiter:holder
    | _ -> ()
  end

(* [holder] inherits from each waiter of [s], best served first. *)
let inherit_waiters k ~holder s =
  List.iter (fun w -> do_inherit k ~holder ~waiter:w) (waiters k (on_sem s))

let restore_prio k holder =
  if holder.inherited then begin
    charge k Sim.Trace.Ovh_pi (k.sched.s_restore ~holder);
    Obs.Probe.emit k.probe ~at:(now k) (Priority_restore { holder = holder.tid });
    (* Re-establish inheritance still owed to waiters of other
       semaphores this thread holds. *)
    List.iter (inherit_waiters k ~holder) holder.held_sems
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

(* §6.3.1: while S is held, no thread that has completed its
   pre-acquire blocking call may run toward its own acquire. *)
let park_approachers k s ~except =
  if s.sem_kind = Emeralds && Option.is_some s.holder then
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
  match s.holder with
  | None ->
    s.holder <- Some tcb;
    tcb.held_sems <- s :: tcb.held_sems;
    Obs.Probe.emit k.probe ~at:(now k)
      (Sem_acquired { tid = tcb.tid; sem = s.sem_id });
    park_approachers k s ~except:tcb;
    `Granted
  | Some holder ->
    (* a holder acquiring again blocks on itself, as in the model checker *)
    Obs.Probe.emit k.probe ~at:(now k)
      (Sem_blocked { tid = tcb.tid; sem = s.sem_id });
    do_inherit k ~holder ~waiter:tcb;
    tcb.waiting_on <- On_sem s;
    block_thread k tcb ~reason:"sem" ~dormant:false;
    `Blocked

let sem_release k tcb s =
  (match s.holder with
  | Some h when h == tcb -> ()
  | Some _ | None -> invalid_arg "Kernel: release of a semaphore not held");
  charge k Sim.Trace.Ovh_sem (Charge.service k.cost Charge.Sem ~words:0);
  Obs.Probe.emit k.probe ~at:(now k)
    (Sem_released { tid = tcb.tid; sem = s.sem_id });
  tcb.held_sems <- List.filter (fun x -> x != s) tcb.held_sems;
  s.holder <- None;
  let was_inherited = tcb.inherited in
  restore_prio k tcb;
  match take_waiter k (on_sem s) with
  | Some w ->
    (* Hand the mutex straight to the best-served waiter; its acquire
       call completes as part of this release (Figure 7's "unblock
       T2"). *)
    s.holder <- Some w;
    w.held_sems <- s :: w.held_sems;
    w.pc <- w.pc + 1;
    Obs.Probe.emit k.probe ~at:(now k)
      (Sem_acquired { tid = w.tid; sem = s.sem_id });
    unblock_thread k w;
    (* The new holder was served first, but a remaining waiter may
       still have a better rank or an earlier deadline.  Re-establish
       inheritance so both are the best over the waiters it now
       blocks. *)
    inherit_waiters k ~holder:w s
  | None ->
    (* The mutex is free again: release the approach queue (§6.3.1). *)
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

(* A thread's blocking call (Wait, Timed_wait, Delay) completes: step
   its pc past the call and finish it under the call's code-parser
   hint, the semaphore the upcoming acquire will target (§6.2). *)
let complete_blocking_call k tcb =
  let hint = tcb.hints.(tcb.pc) in
  tcb.pc <- tcb.pc + 1;
  let locked =
    match hint with
    | Some s when s.sem_kind = Emeralds ->
      join_approachers tcb s;
      Option.map (fun holder -> (s, holder)) s.holder
    | Some _ | None -> None
  in
  match locked with
  | None -> (
    match tcb.state with
    | Blocked _ -> unblock_thread k tcb
    | Ready | Running -> ()
    | Dormant -> assert false)
  | Some (s, holder) -> (
    (* The semaphore is taken: inherit now and keep the thread
       blocked — this is the eliminated context switch C2. *)
    do_inherit k ~holder ~waiter:tcb;
    match tcb.state with
    | Blocked _ ->
      tcb.state <- Blocked "approach";
      Obs.Probe.emit k.probe ~at:(now k)
        (Approach_parked { tid = tcb.tid; sem = s.sem_id });
      Obs.Probe.emit k.probe ~at:(now k)
        (Note
           (Printf.sprintf "tau%d held back awaiting sem%d" tcb.tid s.sem_id));
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

(* ------------------------------------------------------------------ *)
(* Wait queues and signals *)

(* Complete the wait of [wq]'s best waiter; [false] if none waits. *)
let wake_one k wq =
  match take_waiter k (function On_waitq q -> q == wq | _ -> false) with
  | Some w ->
    complete_blocking_call k w;
    true
  | None -> false

let do_signal k wq =
  let dropped =
    match k.fault_drop_signal with
    | None -> false
    | Some f -> f ~wq_id:wq.wq_id
  in
  if dropped then
    Obs.Probe.emit k.probe ~at:(now k)
      (Note (Printf.sprintf "signal lost on waitq%d (fault)" wq.wq_id))
  else if not (wake_one k wq) then
    wq.pending_signals <- wq.pending_signals + 1

let do_broadcast k wq = while wake_one k wq do () done

(* ------------------------------------------------------------------ *)
(* Mailboxes *)

(* [tcb]'s send of [data] to [mb] completes: the message, stamped now. *)
let sent k tcb mb data =
  Obs.Probe.emit k.probe ~at:(now k)
    (Msg_sent { tid = tcb.tid; mailbox = mb.mb_id; words = Array.length data });
  { msg_data = Array.copy data; msg_src = tcb.tid; msg_stamp = now k }

let received k tcb mb msg =
  tcb.inbox <- Some msg;
  Obs.Probe.emit k.probe ~at:(now k)
    (Msg_received
       {
         tid = tcb.tid;
         mailbox = mb.mb_id;
         words = Array.length msg.msg_data;
         queued_for = now k - msg.msg_stamp;
       })

let mb_send k tcb mb data =
  charge k Sim.Trace.Ovh_ipc
    (Charge.service k.cost Charge.Send ~words:(Array.length data));
  match take_waiter k (function On_recv m -> m == mb | _ -> false) with
  | Some receiver ->
    received k receiver mb (sent k tcb mb data);
    receiver.pc <- receiver.pc + 1;
    unblock_thread k receiver;
    `Sent
  | None when Queue.length mb.mb_queue < mb.mb_capacity ->
    Queue.push (sent k tcb mb data) mb.mb_queue;
    `Sent
  | None ->
    tcb.waiting_on <- On_send mb;
    block_thread k tcb ~reason:"mbox-full" ~dormant:false;
    `Blocked

let mb_recv k tcb mb =
  (* the floor now; a queued message adds its copy below *)
  charge k Sim.Trace.Ovh_ipc (Charge.service_floor k.cost Charge.Recv ~words:0);
  if Queue.is_empty mb.mb_queue then begin
    tcb.waiting_on <- On_recv mb;
    block_thread k tcb ~reason:"mbox-empty" ~dormant:false;
    `Blocked
  end
  else begin
    let msg = Queue.pop mb.mb_queue in
    let words = Array.length msg.msg_data in
    charge k Sim.Trace.Ovh_ipc
      (Charge.service k.cost Charge.Recv ~words
      - Charge.service_floor k.cost Charge.Recv ~words);
    received k tcb mb msg;
    (* Space opened up: complete the best blocked sender's call. *)
    (match take_waiter k (function On_send m -> m == mb | _ -> false) with
    | Some sender -> (
      match sender.program.(sender.pc) with
      | Send (mb', data) when mb' == mb ->
        Queue.push (sent k sender mb data) mb.mb_queue;
        sender.pc <- sender.pc + 1;
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
        detect k tcb;
        match e.miss with
        | Miss_record -> ()
        | Miss_shed_next -> tcb.enf.skip_next <- true
        | Miss_kill ->
          (kernel_event k (fun () ->
               charge k Sim.Trace.Ovh_timer k.cost.timer_service;
               if tcb.completed_job < job && tcb.job_no = job then
                 if is_ready tcb then kill_job k tcb
                 else
                   (* the job exit takes a ready thread: a blocked
                      late job dies when next dispatched *)
                   tcb.enf.kill_pending <- true))
            ()))
    end
  in
  (* Probe 1 ns after the deadline so a job completing exactly at its
     deadline (same-instant events) counts as meeting it.  A release
     admitted past its own deadline (a stale pending release drained
     after an overrun) probes now rather than synchronously: the miss
     policy may kill the job and start the next one, which must not
     re-enter the admit/begin chain that is still on the stack.  The
     add saturates: a deadline at [max_int] probes past any horizon. *)
  let check_at = Model.Time.max (now k) (Model.Time.add_sat deadline 1) in
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
  tcb.abs_deadline <- Model.Time.add_sat release tcb.task.deadline;
  if not tcb.inherited then tcb.eff_deadline <- tcb.abs_deadline;
  let st = tcb.enf in
  st.used <- 0;
  st.overrun_flagged <- false;
  st.kill_pending <- false;
  st.quota_flagged <- false;
  disarm_probe k st;
  if st.demoted then begin
    st.demoted <- false;
    if not tcb.inherited then begin
      tcb.eff_prio <- tcb.base_prio;
      tcb.eff_deadline <- tcb.abs_deadline;
      charge k Sim.Trace.Ovh_sched_demote (k.sched.s_reprioritize tcb)
    end
  end;
  Obs.Probe.emit k.probe ~at:(now k)
    (Job_release { tid = tcb.tid; job; deadline = tcb.abs_deadline });
  schedule_deadline_check k tcb ~job ~deadline:tcb.abs_deadline

(* ------------------------------------------------------------------ *)
(* The interpreter *)

and run_instrs k tcb =
  if k.stopped then ()
  else if tcb.enf.kill_pending then begin
    tcb.enf.kill_pending <- false;
    kill_job k tcb
  end
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
    | (Wait wq | Timed_wait (wq, _)) when wq.pending_signals > 0 ->
      (* a pending signal completes the call without blocking *)
      wq.pending_signals <- wq.pending_signals - 1;
      complete_blocking_call k tcb;
      if is_ready tcb then run_instrs k tcb
    | Wait wq ->
      tcb.waiting_on <- On_waitq wq;
      block_thread k tcb ~reason:"wait" ~dormant:false
    | Timed_wait (wq, d) ->
      let armed_job = tcb.job_no and armed_pc = tcb.pc in
      tcb.waiting_on <- On_waitq wq;
      block_thread k tcb ~reason:"wait" ~dormant:false;
      charge k Sim.Trace.Ovh_timer
        (Charge.service k.cost Charge.Timed_wait ~words:0);
      let timeout () =
        (* fire only if the very same wait is still pending *)
        match tcb.waiting_on with
        | On_waitq q
          when q == wq && tcb.job_no = armed_job && tcb.pc = armed_pc ->
          tcb.waiting_on <- No_wait;
          complete_blocking_call k tcb
        | _ -> ()
      in
      ignore
        (Sim.Engine.schedule k.engine ~at:(now k + d) (kernel_event k timeout))
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
      block_thread k tcb ~reason:"delay" ~dormant:false;
      ignore
        (Sim.Engine.schedule k.engine ~at:(now k + d)
           (kernel_event k (fun () -> complete_blocking_call k tcb)))
    | Alloc p ->
      charge k Sim.Trace.Ovh_pool (Charge.service k.cost Charge.Pool ~words:0);
      let c =
        match find_cell tcb p with
        | Some c -> c
        | None ->
          (* the task's first allocation from [p] *)
          let c =
            { mc_pool = p; mc_live = 0; mc_hw = 0; mc_leaked = 0; mc_oom = 0 }
          in
          tcb.mem_cells <- c :: tcb.mem_cells;
          c
      in
      if p.pool_free > 0 then begin
        p.pool_free <- p.pool_free - 1;
        let live = p.pool_capacity - p.pool_free in
        c.mc_live <- c.mc_live + 1;
        c.mc_hw <- Int.max c.mc_hw c.mc_live;
        to_front tcb c;
        Obs.Probe.emit k.probe ~at:(now k)
          (Block_alloc { tid = tcb.tid; pool = p.pool_id; live });
        let job = tcb.job_no in
        check_quota k tcb;
        (* the quota policy may have killed (and even restarted) the
           job; only the surviving job advances past its alloc *)
        if tcb.job_no = job && tcb.completed_job < job then step ()
      end
      else begin
        c.mc_oom <- c.mc_oom + 1;
        Obs.Probe.emit k.probe ~at:(now k)
          (Pool_oom { tid = tcb.tid; pool = p.pool_id });
        step ()
      end
    | Free p ->
      charge k Sim.Trace.Ovh_pool (Charge.service k.cost Charge.Pool ~words:0);
      (match find_cell tcb p with
      | Some c when c.mc_live > 0 ->
        c.mc_live <- c.mc_live - 1;
        to_front tcb c
      | Some _ | None ->
        invalid_arg "Kernel: free of a block the job does not hold");
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
      let st = tcb.enf in
      if live > quota && not st.quota_flagged then begin
        st.quota_flagged <- true;
        st.quota_hits <- st.quota_hits + 1;
        detect k tcb;
        Obs.Probe.emit k.probe ~at:(now k)
          (Quota_exceeded { tid = tcb.tid; job = tcb.job_no; live; quota });
        enforce k tcb me.on_exceed
      end)

(* Blocks still live when the job ends are leaks: record them, then
   reclaim so repeated leaky jobs cannot exhaust the pool forever (the
   lint verdict and the leak trace entries stay in agreement either
   way).  [kill_job] reclaims silently — an aborted job is not a
   program leak. *)
and reclaim_blocks k tcb ~leak =
  List.iter
    (fun c ->
      let n = c.mc_live in
      if n > 0 then begin
        let p = c.mc_pool in
        c.mc_live <- 0;
        p.pool_free <- Int.min p.pool_capacity (p.pool_free + n);
        if leak then begin
          c.mc_leaked <- c.mc_leaked + n;
          Obs.Probe.emit k.probe ~at:(now k)
            (Pool_leak
               { tid = tcb.tid; job = tcb.job_no; pool = p.pool_id; count = n })
        end
      end)
    tcb.mem_cells

and job_complete k tcb =
  reclaim_blocks k tcb ~leak:true;
  let response = now k - tcb.release_time in
  tcb.jobs_completed <- tcb.jobs_completed + 1;
  tcb.total_response <- tcb.total_response + response;
  tcb.max_response <- Model.Time.max tcb.max_response response;
  Obs.Probe.emit k.probe ~at:(now k)
    (Job_complete { tid = tcb.tid; job = tcb.job_no; response });
  end_job k tcb ~reason:"dormant"

(* The one exit of a job, completed or killed: the release queued
   behind it begins, else the task goes dormant.  The new job brings
   its own deadline, so a deadline queue re-selects; a fixed-priority
   queue keeps the task's rank, and the job runs on. *)
and end_job k tcb ~reason =
  tcb.completed_job <- tcb.job_no;
  match Queue.take_opt tcb.pending_releases with
  | None -> block_thread k tcb ~reason ~dormant:true
  | Some (job, release) -> (
    begin_job k tcb ~job ~release;
    match k.sched.s_queue_class tcb with
    | Dp _ -> select_now k
    | Fp -> if tcb.state = Running then run_instrs k tcb)

and start_compute k tcb =
  assert (k.burst = None);
  let started = Model.Time.max (now k) k.busy_until in
  let completion =
    Sim.Engine.schedule k.engine
      ~at:(Model.Time.add_sat started tcb.remaining)
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
    let st = tcb.enf in
    if not st.overrun_flagged then begin
      let slack = Model.Time.max 0 (budget - st.used) in
      if slack < tcb.remaining then begin
        (* fire 1 ns past the crossing instant so using exactly the
           budget is not an overrun.  If the crossing is already banked
           from an earlier burst segment (an event at the very instant
           the probe was due stopped the burst first), detection is
           overdue: fire now. *)
        let fire_at = if st.used > budget then now k else started + slack + 1 in
        st.probe_job <- tcb.job_no;
        st.probe <-
          Some
            (Sim.Engine.schedule k.engine ~at:fire_at (fun () ->
                 budget_probe k tcb ~budget e.policy))
      end
    end

and budget_probe k tcb ~budget policy =
  let st = tcb.enf in
  st.probe <- None;
  if
    (not k.stopped)
    && st.probe_job = tcb.job_no
    && tcb.completed_job < tcb.job_no
    && not st.overrun_flagged
  then begin
    let used_now =
      match k.burst with
      | Some b when b.owner == tcb ->
        Model.Time.add st.used
          (Util.Intmath.clamp ~lo:0 ~hi:b.owner.remaining (now k - b.started))
      | Some _ | None -> st.used
    in
    if used_now > budget then
      (kernel_event k (fun () -> handle_overrun k tcb ~budget policy)) ()
  end

and handle_overrun k tcb ~budget policy =
  (* [kernel_event] has interrupted the burst, so [st.used] is final *)
  let st = tcb.enf in
  st.overrun_flagged <- true;
  st.overruns <- st.overruns + 1;
  detect k tcb;
  charge k Sim.Trace.Ovh_timer k.cost.timer_service;
  Obs.Probe.emit k.probe ~at:(now k)
    (Budget_overrun { tid = tcb.tid; job = tcb.job_no; used = st.used; budget });
  enforce k tcb policy

(* What a budget overrun or a quota violation does to the job. *)
and enforce k tcb = function
  | Notify_only -> ()
  | Demote by ->
    (* Demotion defers to priority inheritance: while the thread holds
       an inherited priority, lowering it would re-introduce exactly
       the inversion PI exists to prevent, so the demotion is skipped
       (and a later PI restore resets the fields to base — the PI
       protocol owns them).  Cleared at the next release. *)
    if not tcb.inherited then begin
      tcb.enf.demoted <- true;
      tcb.eff_prio <- tcb.base_prio + by;
      tcb.eff_deadline <- tcb.abs_deadline + (by * tcb.task.period);
      charge k Sim.Trace.Ovh_sched_demote (k.sched.s_reprioritize tcb)
    end
  | Kill_job -> kill_job k tcb
  | Skip_next ->
    tcb.enf.skip_next <- true;
    kill_job k tcb

(* Abort the current job: drop its held mutexes (releasing them runs
   the normal handoff protocol, so no waiter is stranded), mark the job
   number consumed so the pending deadline probe stays quiet, and leave
   by the job exit.  Stats count kills separately from completions.
   Caller guarantees the thread is Ready or Running. *)
and kill_job k tcb =
  tcb.enf.kills <- tcb.enf.kills + 1;
  Obs.Probe.emit k.probe ~at:(now k) (Job_killed { tid = tcb.tid; job = tcb.job_no });
  List.iter (fun s -> sem_release k tcb s) tcb.held_sems;
  reclaim_blocks k tcb ~leak:false;
  leave_approachers tcb;
  tcb.remaining <- 0;
  tcb.pc <- Array.length tcb.program;
  end_job k tcb ~reason:"killed"

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
      Queue.fold (fun a (j, _) -> Int.max a j) tcb.job_no tcb.pending_releases
    in
    Int.max job (last + 1)
  in
  let st = tcb.enf in
  let disposition =
    if st.skip_next then begin
      st.skip_next <- false;
      `Shed "skip-next"
    end
    else
      match k.enforcement with
      | Some { shed_one_in = Some kk; _ }
        when tcb.state <> Dormant && st.since_shed >= kk ->
        (* the previous job is still active: overload *)
        `Shed "overload"
      | Some _ | None ->
        st.since_shed <- st.since_shed + 1;
        `Run
  in
  match disposition with
  | `Shed reason ->
    st.sheds <- st.sheds + 1;
    st.since_shed <- 0;
    (* shedding is the overload *detection* acting: stamp it *)
    detect k tcb;
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
   notwithstanding (periodic tasks keep their nominal spacing), or at
   [max_int] where that sum would wrap.  The release-jitter fault
   perturbs individual releases around the nominal instant, clamped so
   a delayed chain never schedules into the past. *)
and schedule_release k tcb ~job =
  let at =
    Model.Time.add_sat (k.origin + tcb.task.phase) ((job - 1) * tcb.task.period)
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
    (fresh_tcb ~prio:rank ~deadline:(origin + task.phase + task.deadline) task)
    with
    program;
    hints = Program.derive_hints program;
    has_branches = Program.has_branches program;
  }

let create ?(keep_trace = true) ?(optimized_pi = true) ?(input_seed = 0)
    ?(origin = 0) ?programs ?engine ~cost ~spec ~taskset () =
  if origin < 0 then invalid_arg "Kernel.create: origin must be >= 0";
  Sched.validate_partition spec ~n_tasks:(Model.Taskset.size taskset);
  let programs =
    match programs with Some f -> f | None -> default_program
  in
  let sched = Sched.instantiate spec ~cost ~optimized_pi in
  (* the task set is in RM order: a task's index is its rank *)
  let tcbs =
    Array.mapi
      (fun rank task -> make_tcb ~origin rank task (programs task))
      (Model.Taskset.tasks taskset)
  in
  let by_tid = Hashtbl.create (Array.length tcbs) in
  Array.iter (fun tcb -> Hashtbl.replace by_tid tcb.tid tcb) tcbs;
  if Hashtbl.length by_tid <> Array.length tcbs then
    invalid_arg "Kernel.create: duplicate task ids";
  let engine =
    match engine with Some e -> e | None -> Sim.Engine.create ()
  in
  (* Every object a program names starts from its declared state, as
     at boot, so one realized scenario serves any number of kernels
     created one after another; the pools are also kept for the
     occupancy invariant. *)
  let pools =
    let tbl = Hashtbl.create 4 in
    Array.iter
      (fun (tcb : tcb) ->
        Array.iter
          (function
            | Acquire s | Release s ->
              s.holder <- None;
              if not (Util.Dlist.is_empty s.approachers) then
                Util.Dlist.iter_nodes
                  (Util.Dlist.remove s.approachers)
                  s.approachers
            | Wait wq | Timed_wait (wq, _) | Signal wq | Broadcast wq ->
              wq.pending_signals <- 0
            | Send (mb, _) | Recv mb -> Queue.clear mb.mb_queue
            | State_write (sm, _) | State_read sm -> State_msg.restart sm
            | Alloc p | Free p ->
              p.pool_free <- p.pool_capacity;
              Hashtbl.replace tbl p.pool_id p
            | Compute _ | Delay _ | If_input _ | Repeat _ | Br_input _
            | Jump _ ->
              ())
          tcb.program)
      tcbs;
    List.sort
      (fun (a : pool) b -> compare a.pool_id b.pool_id)
      (Hashtbl.fold (fun _ p acc -> p :: acc) tbl [])
  in
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
      stopped = false;
      origin;
      irq_handlers = Hashtbl.create 8;
      enforcement = None;
      pools;
      mem_enforcement = None;
      fault_demand = None;
      fault_jitter = None;
      fault_drop_signal = None;
      input_root = Util.Rng.create ~seed:input_seed;
      branch_oracle = None;
    }
  in
  sched.s_attach tcbs;
  Array.iter (fun tcb -> schedule_release k tcb ~job:1) tcbs;
  k

let run k ~until = Sim.Engine.run_until k.engine until

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
         {
           e_tid = tcb.tid;
           e_overruns = tcb.enf.overruns;
           e_kills = tcb.enf.kills;
           e_sheds = tcb.enf.sheds;
           e_budget_used = tcb.enf.used;
           e_first_detection = tcb.enf.first_detection;
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
  Array.fold_left
    (fun acc (tcb : tcb) ->
      List.fold_left
        (fun acc c ->
          {
            m_tid = tcb.tid;
            m_pool = c.mc_pool.pool_id;
            m_high_water = c.mc_hw;
            m_leaked = c.mc_leaked;
            m_oom = c.mc_oom;
          }
          :: acc)
        acc tcb.mem_cells)
    [] k.tcbs
  |> List.sort (fun a b -> compare (a.m_pool, a.m_tid) (b.m_pool, b.m_tid))

let quota_hits k =
  Array.to_list
    (Array.map (fun (tcb : tcb) -> (tcb.tid, tcb.enf.quota_hits)) k.tcbs)

(* ------------------------------------------------------------------ *)
(* Environment hooks *)

let register_irq k ~irq ?(signals = []) ?(writes = []) ~handler () =
  if Hashtbl.mem k.irq_handlers irq then
    invalid_arg "Kernel.register_irq: duplicate irq";
  Hashtbl.replace k.irq_handlers irq
    { handler; wakes = signals; publishes = writes }

let irq_event k ~irq =
  kernel_event k (fun () ->
      charge k Sim.Trace.Ovh_irq k.cost.interrupt_entry;
      Obs.Probe.emit k.probe ~at:(now k) (Interrupt { irq });
      (Hashtbl.find k.irq_handlers irq).handler ())

let raise_irq_at k ~at ~irq =
  ignore (Sim.Engine.schedule k.engine ~at (irq_event k ~irq))

let raise_irq_series k ~count ~at ~irq =
  Sim.Engine.schedule_series k.engine ~count ~at (irq_event k ~irq)

let irq_signals k =
  Hashtbl.fold (fun _ e acc -> e.wakes @ acc) k.irq_handlers []

let irq_state_writes k =
  Hashtbl.fold (fun _ e acc -> e.publishes @ acc) k.irq_handlers []

let signal_waitq k wq = do_signal k wq

let at k ~at:time body =
  ignore (Sim.Engine.schedule k.engine ~at:time (kernel_event k body))

let trigger_event k ~tid =
  let tcb = tcb k ~tid in
  kernel_event k (fun () ->
      let job = tcb.job_no + Queue.length tcb.pending_releases + 1 in
      admit_release k tcb ~job ~sporadic:true)

let trigger_job_at k ~at ~tid =
  ignore (Sim.Engine.schedule k.engine ~at (trigger_event k ~tid))

(* no instant, no task lookup: as zero [trigger_job_at] calls *)
let trigger_job_series k ~count ~at ~tid =
  if count > 0 then
    Sim.Engine.schedule_series k.engine ~count ~at (trigger_event k ~tid)
