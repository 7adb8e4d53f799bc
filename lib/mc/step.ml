open State

type choice =
  | Arm_irq of { src : int; at : int }
  | Arm_task of { idx : int; at : State.nr }
  | Tie of int
  | Take_branch of { idx : int; taken : bool }

type expansion = {
  state : State.t;
  notes : (int * State.note) list;
  violation : (string * string * int) option;
  next : [ `Branch of choice list | `Leaf ];
  unprobed : State.scope;
}

type lesion = Keep_inherited

exception Stop_violation of string * string

(* Mutable working copy of a state.  [tstate] records stay immutable
   and are replaced wholesale per index, so [thaw] need only copy the
   spine arrays.  Trace entries are built only when [tracing]: an
   emitter is attached only for counterexample replay.

   Besides the state, the ctx keeps facts every micro-step would
   otherwise rescan: the running task, and — refreshed only when
   [stale] — the next instant at which a release, timer, interrupt or
   deadline probe falls due and the number of open arrival windows.
   [scope] accumulates what was written since the last passing probe
   on the search path, which may lie in the parent's expansion.
   [set] and the IRQ-slot writes keep all of these current; the
   object-array writes go through the setters below, which mark their
   slot. *)
type ctx = {
  m : Machine.t;
  mutable now : int;
  tasks : tstate array;
  sem_holder : int array;
  wq_sig : int array;
  mb_occ : int array;
  sm_seq : int array;
  pool_occ : int array;
  irq_next : nr array;
  mutable notes : (int * note) list; (* reversed *)
  tracing : bool;
  trace : int -> Sim.Trace.entry -> unit;
  check : changed:State.scope -> State.t -> (string * string) option;
  check_note : at:int -> note -> (string * string) option;
  keep_inherited : bool;
  mutable view : State.t;
  mutable running : int; (* the task in [Run], -1 for none *)
  mutable stale : bool; (* [due] and [windows] need a refresh *)
  mutable due : int; (* earliest pending instant; [max_int] = none *)
  mutable windows : int; (* unresolved [Choose] sources *)
  scope : State.scope;
}

let no_trace _ _ = ()

(* The ctx as a state, sharing its arrays: a read-only view while the
   ctx is live (property probes, wait-queue order), and the frozen
   result once the ctx is dead.  The arrays never change identity, so
   one view serves until the clock moves. *)
let view c =
  if c.view.now <> c.now then c.view <- { c.view with now = c.now };
  c.view

(* The last task in [Run]; a state reached by the crank has at most
   one. *)
let find_running (tasks : tstate array) =
  let r = ref (-1) in
  for i = 0 to Array.length tasks - 1 do
    match tasks.(i).mode with Run -> r := i | _ -> ()
  done;
  !r

let thaw ?emit ?lesion ?unprobed ~check ~check_note m (st : State.t) =
  let tasks = Array.copy st.tasks
  and sem_holder = Array.copy st.sem_holder
  and wq_sig = Array.copy st.wq_sig
  and mb_occ = Array.copy st.mb_occ
  and sm_seq = Array.copy st.sm_seq
  and pool_occ = Array.copy st.pool_occ
  and irq_next = Array.copy st.irq_next in
  {
    m;
    now = st.now;
    tasks;
    sem_holder;
    wq_sig;
    mb_occ;
    sm_seq;
    pool_occ;
    irq_next;
    notes = [];
    tracing = Option.is_some emit;
    trace = Option.value emit ~default:no_trace;
    check;
    check_note;
    keep_inherited =
      (match lesion with Some Keep_inherited -> true | None -> false);
    view =
      {
        now = st.now;
        tasks;
        sem_holder;
        wq_sig;
        mb_occ;
        sm_seq;
        pool_occ;
        irq_next;
      };
    running = find_running tasks;
    stale = true;
    due = max_int;
    windows = 0;
    scope =
      (match unprobed with
      | Some sc -> State.copy_scope sc
      | None -> State.everything ());
  }

let mark c part = c.scope.parts <- c.scope.parts lor part

(* The object a blocked mode waits on gains or loses a waiter. *)
let mark_blocked c = function
  | BSem s -> c.scope.sem_set <- c.scope.sem_set lor State.bit s
  | BSend b | BRecv b -> c.scope.mb_set <- c.scope.mb_set lor State.bit b
  | BWait w | BTimed (w, _) -> c.scope.wq_set <- c.scope.wq_set lor State.bit w
  | Idle | Ready | Run | BDelay _ -> ()

let rec mark_pools c = function
  | [] -> ()
  | (p, _) :: rest ->
    c.scope.pool_set <- c.scope.pool_set lor State.bit p;
    mark_pools c rest

(* The object-array writes, each marking its part and its slot. *)
let set_holder c s h =
  c.sem_holder.(s) <- h;
  mark c State.sems;
  c.scope.sem_set <- c.scope.sem_set lor State.bit s

let set_mb_occ c b n =
  c.mb_occ.(b) <- n;
  mark c State.mailboxes;
  c.scope.mb_set <- c.scope.mb_set lor State.bit b

let set_wq_sig c w n =
  c.wq_sig.(w) <- n;
  mark c State.waitqs;
  c.scope.wq_set <- c.scope.wq_set lor State.bit w

let set_pool_occ c p n =
  c.pool_occ.(p) <- n;
  mark c State.pools;
  c.scope.pool_set <- c.scope.pool_set lor State.bit p

let timed = function BDelay _ | BTimed _ -> true | _ -> false

(* Replace task [i]'s record, marking the parts in which the new one
   differs, the task if it differs in any, and the objects whose
   waiters or holdings it moves, and keeping the derived facts
   current.  Lists and modes compare physically: a rebuilt equal value
   only marks more. *)
let set c i t =
  let o = c.tasks.(i) in
  c.tasks.(i) <- t;
  let parts = ref 0 in
  if o.mode != t.mode then begin
    (match (o.mode, t.mode) with
    | (Ready | Run), (Ready | Run) -> parts := State.switch
    | om, tm ->
      mark_blocked c om;
      mark_blocked c tm;
      parts :=
        (match (om, tm) with
        | Run, _ | _, Run -> State.(modes lor switch)
        | _ -> State.modes));
    (match t.mode with
    | Run -> c.running <- i
    | _ -> if c.running = i then c.running <- -1);
    if timed o.mode || timed t.mode then c.stale <- true
  end;
  if
    o.eff <> t.eff || o.effdl <> t.effdl || o.dl <> t.dl || o.inh != t.inh
    || o.held != t.held
  then parts := !parts lor State.modes;
  if o.pc <> t.pc || o.rem <> t.rem then parts := !parts lor State.progress;
  if o.live != t.live then begin
    mark_pools c o.live;
    mark_pools c t.live;
    parts := !parts lor State.live
  end;
  if !parts <> 0 then begin
    mark c !parts;
    c.scope.task_set <- c.scope.task_set lor State.bit i
  end;
  if o.next_rel != t.next_rel || o.dl_check <> t.dl_check then
    c.stale <- true

let set_irq c k nr =
  c.irq_next.(k) <- nr;
  c.stale <- true

let tid c i = c.m.tasks.(i).tid

(* Callers guard with [c.tracing], so no entry is built without an
   emitter. *)
let emit c e = c.trace c.now e

let note c n =
  c.notes <- (c.now, n) :: c.notes;
  match c.check_note ~at:c.now n with
  | Some (p, msg) -> raise (Stop_violation (p, msg))
  | None -> ()

let probe c =
  match c.check ~changed:c.scope (view c) with
  | Some (p, msg) -> raise (Stop_violation (p, msg))
  | None -> State.clear_scope c.scope

let job_no c i =
  let mt = c.m.tasks.(i) in
  match mt.release with
  | Machine.Periodic -> ((c.tasks.(i).rel - mt.phase) / mt.period) + 1
  | Machine.Sporadic _ -> 0

let rec remove_first (x : int) = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_first x tl

(* --- priority inheritance ------------------------------------------- *)

(* Mirror of the kernel's [do_inherit]: boost the holder to the
   waiter's effective rank and deadline, walking blocking chains
   transitively.  The declarative fixpoint lives in [Props]; the two
   must agree, which is itself a checked property. *)
let rec inherit_into c ~holder ~waiter =
  if holder <> waiter then begin
    let h = c.tasks.(holder) and w = c.tasks.(waiter) in
    let eff = Int.min h.eff w.eff and effdl = Int.min h.effdl w.effdl in
    if eff < h.eff || effdl < h.effdl then begin
      set c holder { h with eff; effdl; inh = true };
      if c.tracing then
        emit c
          (Sim.Trace.Priority_inherit
             { holder = tid c holder; from_tid = tid c waiter });
      match h.mode with
      | BSem s -> (
        match c.sem_holder.(s) with
        | -1 -> ()
        | h2 -> inherit_into c ~holder:h2 ~waiter:holder)
      | _ -> ()
    end
  end

(* Mirror of the kernel's [restore_prio]: back to base, then
   re-inherit from the waiters of everything still held.  The
   [Keep_inherited] lesion skips the reset. *)
let restore_prio c i =
  let t = c.tasks.(i) in
  let was_inh = t.inh in
  if not c.keep_inherited then
    set c i { t with eff = i; effdl = t.dl; inh = false };
  List.iter
    (fun s ->
      List.iter
        (fun w -> inherit_into c ~holder:i ~waiter:w)
        (State.sem_waiters c.m (view c) s))
    t.held;
  if was_inh && (not c.tasks.(i).inh) && c.tracing then
    emit c (Sim.Trace.Priority_restore { holder = tid c i })

(* --- job lifecycle --------------------------------------------------- *)

let begin_job c i ~release =
  let mt = c.m.tasks.(i) in
  let t = c.tasks.(i) in
  let dl = release + mt.deadline in
  let late = dl + 1 < c.now in
  (* the kernel probes at deadline+1; a backlogged job starting after
     that instant has already missed *)
  let dl_check = if late then max_int else dl + 1 in
  set c i
    {
      t with
      mode = (match t.mode with Idle -> Ready | m -> m);
      pc = 0;
      rem = 0;
      rel = release;
      dl;
      effdl = (if t.inh then t.effdl else dl);
      dl_check;
      brs = 0;
    };
  if c.tracing then
    emit c
      (Sim.Trace.Job_release { tid = tid c i; job = job_no c i; deadline = dl });
  if late then begin
    note c (Miss { idx = i });
    if c.tracing then
      emit c
        (Sim.Trace.Deadline_miss
           { tid = tid c i; job = job_no c i; lateness = c.now - dl })
  end

let release_task c i =
  let t = c.tasks.(i) in
  (match t.mode with
  | Idle -> begin_job c i ~release:c.now
  | _ -> set c i { t with pending = t.pending @ [ c.now ] });
  let mt = c.m.tasks.(i) in
  let t = c.tasks.(i) in
  let next_rel =
    match mt.release with
    | Machine.Periodic -> At (c.now + mt.period)
    | Machine.Sporadic { min_ia; max_ia } ->
      Choose (c.now + min_ia, c.now + max_ia)
  in
  set c i { t with next_rel }

let job_complete c i =
  let t = c.tasks.(i) in
  (* mirror of the kernel's reclaim-and-record: blocks still live at
     job end are a leak, noted then reclaimed, before the completion *)
  List.iter
    (fun (p, n) ->
      set_pool_occ c p (Int.max 0 (c.pool_occ.(p) - n));
      note c (Leak { idx = i; pool = p; count = n });
      if c.tracing then
        emit c
          (Sim.Trace.Pool_leak
             { tid = tid c i; job = job_no c i; pool = c.m.pool_ids.(p); count = n }))
    t.live;
  let response = c.now - t.rel in
  note c (Job_done { idx = i; response });
  if c.tracing then
    emit c
      (Sim.Trace.Job_complete { tid = tid c i; job = job_no c i; response });
  set c i { t with dl_check = max_int; live = [] };
  match t.pending with
  | [] -> set c i { (c.tasks.(i)) with mode = Idle }
  | r :: rest ->
    set c i { (c.tasks.(i)) with pending = rest };
    begin_job c i ~release:r

(* --- wakeups --------------------------------------------------------- *)

(* Complete a blocking call: back to ready with the pc advanced past
   the blocking instruction. *)
let wake c i =
  let t = c.tasks.(i) in
  set c i { t with mode = Ready; pc = t.pc + 1 };
  if c.tracing then emit c (Sim.Trace.Thread_unblock { tid = tid c i })

let do_signal c w =
  match State.wq_waiters c.m (view c) w with
  | [] -> set_wq_sig c w (c.wq_sig.(w) + 1)
  | i :: _ -> wake c i

let do_broadcast c w = List.iter (wake c) (State.wq_waiters c.m (view c) w)

let deliver_irq c k =
  let src = c.m.irqs.(k) in
  if c.tracing then emit c (Sim.Trace.Interrupt { irq = src.src_irq });
  List.iter (do_signal c) src.sig_wqs;
  List.iter
    (fun smi ->
      c.sm_seq.(smi) <- c.sm_seq.(smi) + 1;
      if c.tracing then
        emit c
          (Sim.Trace.State_written
             { tid = -1; state = c.m.sm_ids.(smi); seq = c.sm_seq.(smi) }))
    src.wr_sms;
  set_irq c k (Choose (c.now + src.min_ia, c.now + src.max_ia))

(* Recompute the timing facts after a write made them stale: the
   earliest instant at which a release, timer, interrupt or deadline
   probe falls due, and the number of open arrival windows. *)
let refresh c =
  if c.stale then begin
    let due = ref max_int and windows = ref 0 in
    for i = 0 to Array.length c.tasks - 1 do
      let t = c.tasks.(i) in
      (match t.next_rel with
      | At r -> due := Int.min !due r
      | Choose _ -> incr windows
      | Never -> ());
      (match t.mode with
      | BDelay w -> due := Int.min !due w
      | BTimed (_, tmo) -> due := Int.min !due tmo
      | _ -> ());
      due := Int.min !due t.dl_check
    done;
    for k = 0 to Array.length c.irq_next - 1 do
      match c.irq_next.(k) with
      | At t -> due := Int.min !due t
      | Choose _ -> incr windows
      | Never -> ()
    done;
    c.due <- !due;
    c.windows <- !windows;
    c.stale <- false
  end

let next_event_time c =
  refresh c;
  c.due

(* Fire everything due at the current instant, in the canonical order
   (releases by rank, then timers, then interrupts by source, then
   deadline probes).  Idempotent: firing consumes the event. *)
let deliver_due c =
  let n = Array.length c.tasks in
  for i = 0 to n - 1 do
    match c.tasks.(i).next_rel with
    | At r when r <= c.now -> release_task c i
    | _ -> ()
  done;
  for i = 0 to n - 1 do
    let t = c.tasks.(i) in
    match t.mode with
    | BDelay w when w <= c.now ->
      set c i { t with mode = Ready };
      if c.tracing then emit c (Sim.Trace.Thread_unblock { tid = tid c i })
    | BTimed (_, tmo) when tmo <= c.now -> wake c i
    | _ -> ()
  done;
  for k = 0 to Array.length c.irq_next - 1 do
    match c.irq_next.(k) with
    | At t when t <= c.now -> deliver_irq c k
    | _ -> ()
  done;
  for i = 0 to n - 1 do
    let t = c.tasks.(i) in
    if t.dl_check <= c.now then begin
      set c i { t with dl_check = max_int };
      note c (Miss { idx = i });
      if c.tracing then
        emit c
          (Sim.Trace.Deadline_miss
             { tid = tid c i; job = job_no c i; lateness = c.now - t.dl })
    end
  done

(* Unresolved arrival windows, canonical order: sporadic tasks first,
   then interrupt sources; [[]] when none is open.  Time may not
   advance past one. *)
let rec task_window c i =
  if i >= Array.length c.tasks then []
  else
    match c.tasks.(i).next_rel with
    | Choose (lo, hi) ->
      let lo = Int.max lo c.now and hi = Int.max hi c.now in
      let rest = [ Arm_task { idx = i; at = Never } ] in
      Arm_task { idx = i; at = At lo }
      :: (if hi = lo then rest else Arm_task { idx = i; at = At hi } :: rest)
    | _ -> task_window c (i + 1)

let rec irq_window c k =
  if k >= Array.length c.irq_next then []
  else
    match c.irq_next.(k) with
    | Choose (lo, hi) ->
      let lo = Int.max lo c.now and hi = Int.max hi c.now in
      let rest = if hi = lo then [] else [ Arm_irq { src = k; at = hi } ] in
      Arm_irq { src = k; at = lo } :: rest
    | _ -> irq_window c (k + 1)

let arm_choices c =
  refresh c;
  if c.windows = 0 then []
  else match task_window c 0 with [] -> irq_window c 0 | cs -> cs

(* --- dispatch -------------------------------------------------------- *)

let ready c i = match c.tasks.(i).mode with Ready | Run -> true | _ -> false

(* What [pick] returns besides a task index. *)
let idle = -1
let tie = -2

let pick c =
  let st = view c in
  let mink = ref max_int and nbest = ref 0 and first = ref (-1) in
  for i = 0 to Array.length c.tasks - 1 do
    if ready c i then begin
      let k = State.dispatch_key c.m st i in
      if !nbest = 0 || k < !mink then begin
        mink := k;
        nbest := 1;
        first := i
      end
      else if k = !mink then incr nbest
    end
  done;
  if !nbest = 0 then idle
  else
    (* the incumbent keeps the CPU on equal keys (no preemption
       without a strictly better key — the kernel behaves the same) *)
    let r = c.running in
    if r >= 0 && State.dispatch_key c.m st r = !mink then r
    else if !nbest = 1 then !first
    else tie

(* The candidates of a [tie], in index order. *)
let tie_choices c =
  let st = view c in
  let mink = ref max_int and out = ref [] in
  for i = Array.length c.tasks - 1 downto 0 do
    if ready c i then begin
      let k = State.dispatch_key c.m st i in
      if k < !mink then begin
        mink := k;
        out := [ Tie i ]
      end
      else if k = !mink then out := Tie i :: !out
    end
  done;
  !out

let dispatch c i =
  let prev = c.running in
  if prev <> i then begin
    if prev >= 0 then set c prev { (c.tasks.(prev)) with mode = Ready };
    set c i { (c.tasks.(i)) with mode = Run };
    if c.tracing then
      emit c
        (Sim.Trace.Context_switch
           {
             from_tid = (if prev >= 0 then Some (tid c prev) else None);
             to_tid = Some (tid c i);
           })
  end

(* --- instruction execution ------------------------------------------ *)

let exec_instr c i ~horizon =
  let mt = c.m.tasks.(i) in
  let t = c.tasks.(i) in
  if t.pc >= Array.length mt.code then begin
    job_complete c i;
    `Ok
  end
  else
    match mt.code.(t.pc) with
    | Machine.ICompute d ->
      let rem = if t.rem > 0 then t.rem else d in
      if rem = 0 then begin
        set c i { t with pc = t.pc + 1; rem = 0 };
        `Ok
      end
      else begin
        let t_done = c.now + rem in
        let target = Int.min t_done (next_event_time c) in
        if target > horizon then `Capped
        else begin
          let elapsed = target - c.now in
          c.now <- target;
          if target = t_done then set c i { t with rem = 0; pc = t.pc + 1 }
          else set c i { t with rem = rem - elapsed };
          `Ok
        end
      end
    | Machine.IAcquire s ->
      (match c.sem_holder.(s) with
      | -1 ->
        set_holder c s i;
        set c i { t with pc = t.pc + 1; held = s :: t.held };
        if c.tracing then
          emit c
            (Sim.Trace.Sem_acquired { tid = tid c i; sem = c.m.sem_ids.(s) })
      | h ->
        set c i { t with mode = BSem s };
        if c.tracing then begin
          emit c
            (Sim.Trace.Sem_blocked { tid = tid c i; sem = c.m.sem_ids.(s) });
          emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "sem" })
        end;
        inherit_into c ~holder:h ~waiter:i);
      `Ok
    | Machine.IRelease s ->
      if not (List.mem s t.held) then begin
        note c
          (Fault
             (Printf.sprintf "%s releases sem %d it does not hold" mt.task_name
                c.m.sem_ids.(s)));
        set c i { t with pc = t.pc + 1 }
      end
      else begin
        set c i { t with pc = t.pc + 1; held = remove_first s t.held };
        if c.tracing then
          emit c
            (Sim.Trace.Sem_released { tid = tid c i; sem = c.m.sem_ids.(s) });
        restore_prio c i;
        match State.sem_waiters c.m (view c) s with
        | [] -> set_holder c s (-1)
        | w :: rest ->
          (* direct handoff, like the kernel's [sem_release]: the
             best-served waiter leaves holding the mutex.  A remaining
             waiter may still have a better rank or an earlier
             deadline — re-inherit so both are the best over the
             waiters the new holder now blocks. *)
          set_holder c s w;
          let wt = c.tasks.(w) in
          set c w { wt with mode = Ready; pc = wt.pc + 1; held = s :: wt.held };
          if c.tracing then begin
            emit c (Sim.Trace.Thread_unblock { tid = tid c w });
            emit c
              (Sim.Trace.Sem_acquired { tid = tid c w; sem = c.m.sem_ids.(s) })
          end;
          List.iter (fun w2 -> inherit_into c ~holder:w ~waiter:w2) rest
      end;
      `Ok
    | (Machine.IWait w | Machine.ITimed_wait (w, _)) as wait ->
      if c.wq_sig.(w) > 0 then begin
        (* a pending signal completes the call without blocking *)
        set_wq_sig c w (c.wq_sig.(w) - 1);
        set c i { t with pc = t.pc + 1 }
      end
      else begin
        let mode =
          match wait with
          | Machine.ITimed_wait (_, d) -> BTimed (w, c.now + d)
          | _ -> BWait w
        in
        set c i { t with mode };
        if c.tracing then
          emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "wait" })
      end;
      `Ok
    | Machine.ISignal w ->
      set c i { t with pc = t.pc + 1 };
      do_signal c w;
      `Ok
    | Machine.IBroadcast w ->
      set c i { t with pc = t.pc + 1 };
      do_broadcast c w;
      `Ok
    | Machine.ISend b ->
      (match State.mb_receivers c.m (view c) b with
      | r :: _ ->
        (* a blocked receiver takes delivery directly *)
        set c i { t with pc = t.pc + 1 };
        if c.tracing then
          emit c
            (Sim.Trace.Msg_sent
               { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0 });
        wake c r;
        if c.tracing then
          emit c
            (Sim.Trace.Msg_received
               { tid = tid c r; mailbox = c.m.mb_ids.(b); words = 0; queued_for = 0 })
      | [] ->
        if c.mb_occ.(b) < c.m.mb_cap.(b) then begin
          set_mb_occ c b (c.mb_occ.(b) + 1);
          set c i { t with pc = t.pc + 1 };
          if c.tracing then
            emit c
              (Sim.Trace.Msg_sent
                 { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0 })
        end
        else begin
          set c i { t with mode = BSend b };
          if c.tracing then
            emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "mbox-full" })
        end);
      `Ok
    | Machine.IRecv b ->
      if c.mb_occ.(b) > 0 then begin
        set_mb_occ c b (c.mb_occ.(b) - 1);
        set c i { t with pc = t.pc + 1 };
        if c.tracing then
          emit c
            (Sim.Trace.Msg_received
               { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0; queued_for = 0 });
        (* a freed slot admits the best blocked sender's message *)
        (match State.mb_senders c.m (view c) b with
        | s :: _ ->
          set_mb_occ c b (c.mb_occ.(b) + 1);
          wake c s;
          if c.tracing then
            emit c
              (Sim.Trace.Msg_sent
                 { tid = tid c s; mailbox = c.m.mb_ids.(b); words = 0 })
        | [] -> ())
      end
      else begin
        (* an empty box has no blocked sender: capacity is at least 1 *)
        set c i { t with mode = BRecv b };
        if c.tracing then
          emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "mbox-empty" })
      end;
      `Ok
    | Machine.ISwrite sm ->
      c.sm_seq.(sm) <- c.sm_seq.(sm) + 1;
      set c i { t with pc = t.pc + 1 };
      if c.tracing then
        emit c
          (Sim.Trace.State_written
             { tid = tid c i; state = c.m.sm_ids.(sm); seq = c.sm_seq.(sm) });
      `Ok
    | Machine.ISread_begin sm ->
      set c i { t with pc = t.pc + 1; read_sm = sm; read_seq = c.sm_seq.(sm) };
      `Ok
    | Machine.ISread_end sm ->
      let writes = c.sm_seq.(sm) - t.read_seq in
      set c i { t with pc = t.pc + 1; read_sm = -1; read_seq = 0 };
      if c.tracing then
        emit c
          (Sim.Trace.State_read
             { tid = tid c i; state = c.m.sm_ids.(sm); seq = c.sm_seq.(sm) });
      if writes >= c.m.sm_depth.(sm) - 1 then
        note c (Torn { idx = i; sm; writes });
      `Ok
    | Machine.IDelay d ->
      if d = 0 then set c i { t with pc = t.pc + 1 }
      else begin
        set c i { t with mode = BDelay (c.now + d); pc = t.pc + 1 };
        if c.tracing then
          emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "delay" })
      end;
      `Ok
    | Machine.IAlloc p ->
      if c.pool_occ.(p) < c.m.pool_cap.(p) then begin
        set_pool_occ c p (c.pool_occ.(p) + 1);
        let mine =
          (match List.assoc_opt p t.live with Some n -> n | None -> 0) + 1
        in
        let live = List.sort compare ((p, mine) :: List.remove_assoc p t.live) in
        set c i { t with pc = t.pc + 1; live };
        if c.tracing then
          emit c
            (Sim.Trace.Block_alloc
               { tid = tid c i; pool = c.m.pool_ids.(p); live = c.pool_occ.(p) })
      end
      else begin
        note c (Oom { idx = i; pool = p });
        if c.tracing then
          emit c (Sim.Trace.Pool_oom { tid = tid c i; pool = c.m.pool_ids.(p) });
        set c i { t with pc = t.pc + 1 }
      end;
      `Ok
    | Machine.IFree p -> (
      match List.assoc_opt p t.live with
      | None | Some 0 ->
        (* the kernel faults here (invalid_arg); the checker records the
           fault and runs on so one trace can carry several findings *)
        note c
          (Fault
             (Printf.sprintf "%s frees a block of pool %d it does not hold"
                mt.task_name c.m.pool_ids.(p)));
        set c i { t with pc = t.pc + 1 };
        `Ok
      | Some mine ->
        set_pool_occ c p (c.pool_occ.(p) - 1);
        let rest = List.remove_assoc p t.live in
        let live =
          if mine = 1 then rest else List.sort compare ((p, mine - 1) :: rest)
        in
        set c i { t with pc = t.pc + 1; live };
        if c.tracing then
          emit c
            (Sim.Trace.Block_free
               { tid = tid c i; pool = c.m.pool_ids.(p); live = c.pool_occ.(p) });
        `Ok)
    | Machine.IBr_input _ ->
      (* a data-dependent branch is a nondeterminism source: stop here
         and let the crank fork over both outcomes *)
      `Fork
    | Machine.IJump target ->
      set c i { t with pc = target };
      `Ok

(* --- the crank ------------------------------------------------------- *)

let rec crank ~horizon c =
  match arm_choices c with
  | _ :: _ as cs -> `Branch cs
  | [] -> (
    (* nothing falls due before [next_event_time] *)
    if c.now >= next_event_time c then deliver_due c;
    match arm_choices c with
    | _ :: _ as cs -> `Branch cs
    | [] ->
      probe c;
      let i = pick c in
      if i = tie then `Branch (tie_choices c)
      else if i = idle then begin
        let t = next_event_time c in
        if t <> max_int && t <= horizon then begin
          c.now <- t;
          crank ~horizon c
        end
        else `Leaf
      end
      else begin
        dispatch c i;
        match exec_instr c i ~horizon with
        | `Capped -> `Leaf
        | `Fork ->
          `Branch
            [
              Take_branch { idx = i; taken = true };
              Take_branch { idx = i; taken = false };
            ]
        | `Ok ->
          (* A job whose program just ran out finishes *now*, even if a
             same-instant release is about to preempt the task —
             completion is zero-time, so deferring it to the next
             dispatch would inflate the measured response. *)
          let t = c.tasks.(i) in
          (match t.mode with
          | Run when t.pc >= Array.length c.m.tasks.(i).code -> job_complete c i
          | _ -> ());
          crank ~horizon c
      end)

let pp_choice (m : Machine.t) fmt = function
  | Arm_irq { src; at } ->
    Format.fprintf fmt "irq%d arrives at %dns" m.irqs.(src).src_irq at
  | Arm_task { idx; at = At t } ->
    Format.fprintf fmt "sporadic %s released at %dns" m.tasks.(idx).task_name t
  | Arm_task { idx; at = _ } ->
    Format.fprintf fmt "sporadic %s stays silent" m.tasks.(idx).task_name
  | Tie i -> Format.fprintf fmt "tie-break: dispatch %s" m.tasks.(i).task_name
  | Take_branch { idx; taken } ->
    Format.fprintf fmt "branch in %s: %s" m.tasks.(idx).task_name
      (if taken then "taken" else "not taken")

let choice_to_string m c = Format.asprintf "%a" (pp_choice m) c

(* Commit one choice of the parent's [`Branch] list.  It never
   advances time; the crank that follows does. *)
let commit c choice =
  if c.tracing then
    emit c (Sim.Trace.Note ("choice: " ^ choice_to_string c.m choice));
  match choice with
  | Arm_irq { src; at } -> set_irq c src (At at)
  | Arm_task { idx; at } -> set c idx { (c.tasks.(idx)) with next_rel = at }
  | Tie i -> dispatch c i
  | Take_branch { idx; taken } ->
    let t = c.tasks.(idx) in
    let target =
      match c.m.tasks.(idx).code.(t.pc) with
      | Machine.IBr_input target -> target
      | _ -> invalid_arg "Mc.Step.expand: Take_branch at a non-branch pc"
    in
    if c.tracing then
      emit c (Sim.Trace.Branch { tid = tid c idx; pc = t.pc; idx = t.brs; taken });
    set c idx
      { t with pc = (if taken then t.pc + 1 else target); brs = t.brs + 1 }

let expand ?emit ?lesion ?unprobed ?(check = fun ~changed:_ _ -> None)
    ?(check_note = fun ~at:_ _ -> None) ?choice ~horizon m st =
  let c = thaw ?emit ?lesion ?unprobed ~check ~check_note m st in
  let next, violation =
    match
      (match choice with Some ch -> commit c ch | None -> ());
      crank ~horizon c
    with
    | r -> (r, None)
    | exception Stop_violation (p, msg) -> (`Leaf, Some (p, msg, c.now))
  in
  {
    state = view c;
    notes = List.rev c.notes;
    violation;
    next;
    unprobed = c.scope;
  }
