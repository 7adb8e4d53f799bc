(* Online response-time blame attribution.  See the .mli for the
   attribution model; the crux is that every probe event advances a
   global [mark] and the span [mark, t) is attributed to every open
   job before the event's own state change is applied, so the state
   used for classification is the state that actually held during the
   span.  Kernel overhead occupies segments of the CPU timeline that
   start at the kernel's [busy_until] cursor, not at the emitting
   event's timestamp; a FIFO of (category, start, end) segments, kept
   in an int ring, mirrors that cursor so each span's overhead portion
   is exact.  Per event nothing is allocated: tasks sit in a dense
   array by tid, each reuses one component record across its jobs, and
   breakdown lists are built only for a new worst job or a callback. *)

type cause =
  | Own_exec
  | Interference of int
  | Blocking of int
  | Kernel_overhead
  | Irq_overhead
  | Backlog
  | Suspension
  | Idle_gap

let cause_label = function
  | Own_exec -> "exec"
  | Interference r -> Printf.sprintf "interference(rank %d)" r
  | Blocking s -> if s < 0 then "inversion(unattributed)" else Printf.sprintf "sem %d" s
  | Kernel_overhead -> "overhead"
  | Irq_overhead -> "irq"
  | Backlog -> "backlog"
  | Suspension -> "suspend"
  | Idle_gap -> "gap"

type breakdown = {
  b_tid : int;
  b_job : int;
  b_response : Model.Time.t;
  b_exec : Model.Time.t;
  b_backlog : Model.Time.t;
  b_interference : (int * Model.Time.t) list;
  b_blocking : (int * Model.Time.t) list;
  b_overhead : (Sim.Trace.ovh_category * Model.Time.t) list;
  b_suspend : Model.Time.t;
  b_gap : Model.Time.t;
  b_irqs : int;
  b_residual : Model.Time.t;
}

let sum l = List.fold_left (fun acc (_, v) -> acc + v) 0 l
let blocking_total b = sum b.b_blocking
let overhead_total b = sum b.b_overhead

let components_total b =
  b.b_exec + b.b_backlog + sum b.b_interference + sum b.b_blocking
  + sum b.b_overhead + b.b_suspend + b.b_gap

(* Every component as a cause, in one fixed order: [dominant] and
   [pp_breakdown] both read this list. *)
let causes b =
  let irq_ovh =
    List.fold_left
      (fun acc (c, v) -> if c = Sim.Trace.Ovh_irq then acc + v else acc)
      0 b.b_overhead
  in
  (Own_exec, b.b_exec) :: (Backlog, b.b_backlog)
  :: (Kernel_overhead, overhead_total b - irq_ovh) :: (Irq_overhead, irq_ovh)
  :: (Suspension, b.b_suspend) :: (Idle_gap, b.b_gap)
  :: List.map (fun (r, v) -> (Interference r, v)) b.b_interference
  @ List.map (fun (s, v) -> (Blocking s, v)) b.b_blocking

let dominant b =
  List.fold_left
    (fun (bc, bv) (c, v) -> if v > bv then (c, v) else (bc, bv))
    (Own_exec, b.b_exec) (causes b)

let pp_breakdown ppf b =
  let rows =
    List.filter (fun (_, v) -> v > 0) (causes b)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Format.fprintf ppf "@[<v>tau%d job %d  response %a  (%d irqs)@," b.b_tid
    b.b_job Model.Time.pp b.b_response b.b_irqs;
  List.iter
    (fun (c, v) ->
      Format.fprintf ppf "  %-26s %a  %5.1f%%@," (cause_label c) Model.Time.pp v
        (100. *. float_of_int v /. float_of_int (max 1 b.b_response)))
    rows;
  if b.b_residual <> 0 then
    Format.fprintf ppf "  %-26s %a  CONSERVATION VIOLATION@," "residual"
      Model.Time.pp b.b_residual;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)

(* A task's thread state; the semaphore of [S_blocked_sem] and
   [S_approach] lives in [pt_sem], so a transition allocates nothing. *)
type task_state =
  | S_idle  (* dormant / between jobs *)
  | S_ready
  | S_running
  | S_blocked_sem
  | S_approach
  | S_suspended

(* The open job's components, one record per task reused across its
   jobs; blocking is a small (semaphore, time) table, -1 = unknown. *)
type components = {
  mutable c_exec : int;
  mutable c_backlog : int;
  c_interference : int array; (* by preempting task's rank *)
  mutable c_bsem : int array;
  mutable c_btime : int array;
  mutable c_bn : int;
  c_overhead : int array; (* by Sim.Trace.ovh_index *)
  mutable c_suspend : int;
  mutable c_gap : int;
  mutable c_irqs : int;
}

type per_task = {
  pt_id : int;
  pt_rank : int;
  pt_deadline : Model.Time.t; (* relative *)
  comp : components;
  mutable j_open : bool;
  mutable j_num : int;
  mutable j_release : Model.Time.t;
  mutable jobs : int;
  mutable killed : int;
  mutable worst : breakdown option;
  mutable max_response : int;
  mutable max_exec : int;
  max_interference : int array;
  mutable max_blocking_total : int;
  mutable max_ovh_total : int;
  mutable max_irqs : int;
  mutable released : bool; (* the two release times below are set *)
  mutable first_release : Model.Time.t;
  mutable last_release : Model.Time.t;
  mutable max_abs_residual : int;
  mutable residual_violations : int;
  (* live thread state *)
  mutable tstate : task_state;
  mutable pt_sem : int; (* sem of S_blocked_sem / S_approach, -1 *)
  mutable pending_sem : int; (* sem of the last Sem_blocked, -1 *)
  mutable held : int array; (* held semaphores, most recent last *)
  mutable n_held : int;
  mutable inherit_sem : int; (* sem driving an active inheritance, -1 *)
}

type t = {
  tasks : per_task array; (* rank order *)
  by_tid : per_task option array; (* dense, indexed by task id *)
  mutable mark : Model.Time.t;
  mutable runner : per_task option; (* always a [by_tid] cell *)
  mutable ring : int array; (* FIFO of (category, start, end) segments *)
  mutable r_head : int; (* in segments *)
  mutable r_len : int;
  mutable ovh_cursor : int; (* mirror of the kernel's busy_until *)
  ovh_scratch : int array; (* per-span overhead by category *)
  ovh_touched : int array; (* the categories [ovh_scratch] holds *)
  mutable callbacks : (breakdown -> unit) list;
}

let create ~tasks () =
  let n = Array.length tasks in
  let pts =
    Array.mapi
      (fun rank (id, _period, deadline) ->
        {
          pt_id = id;
          pt_rank = rank;
          pt_deadline = deadline;
          comp =
            {
              c_exec = 0;
              c_backlog = 0;
              c_interference = Array.make n 0;
              c_bsem = Array.make 4 0;
              c_btime = Array.make 4 0;
              c_bn = 0;
              c_overhead = Array.make Sim.Trace.ovh_count 0;
              c_suspend = 0;
              c_gap = 0;
              c_irqs = 0;
            };
          j_open = false;
          j_num = 0;
          j_release = 0;
          jobs = 0;
          killed = 0;
          worst = None;
          max_response = 0;
          max_exec = 0;
          max_interference = Array.make n 0;
          max_blocking_total = 0;
          max_ovh_total = 0;
          max_irqs = 0;
          released = false;
          first_release = 0;
          last_release = 0;
          max_abs_residual = 0;
          residual_violations = 0;
          tstate = S_idle;
          pt_sem = -1;
          pending_sem = -1;
          held = Array.make 4 0;
          n_held = 0;
          inherit_sem = -1;
        })
      tasks
  in
  let n_ids = Array.fold_left (fun m pt -> Int.max m (pt.pt_id + 1)) 0 pts in
  let by_tid = Array.make n_ids None in
  Array.iter (fun pt -> if pt.pt_id >= 0 then by_tid.(pt.pt_id) <- Some pt) pts;
  {
    tasks = pts;
    by_tid;
    mark = 0;
    runner = None;
    ring = Array.make 48 0;
    r_head = 0;
    r_len = 0;
    ovh_cursor = 0;
    ovh_scratch = Array.make Sim.Trace.ovh_count 0;
    ovh_touched = Array.make Sim.Trace.ovh_count 0;
    callbacks = [];
  }

let of_taskset ts =
  Array.map
    (fun (task : Model.Task.t) -> (task.Model.Task.id, task.period, task.deadline))
    (Model.Taskset.tasks ts)

let on_complete t fn = t.callbacks <- t.callbacks @ [ fn ]

let find t tid =
  if tid >= 0 && tid < Array.length t.by_tid then t.by_tid.(tid) else None

let grow a = Array.append a (Array.make (Array.length a) 0)

let push_segment t cat start stop =
  let cap = Array.length t.ring / 3 in
  if t.r_len = cap then begin
    (* unroll the ring into a doubled one, oldest segment first *)
    let tail = Array.sub t.ring (3 * t.r_head) (3 * (cap - t.r_head)) in
    t.ring <- grow (Array.append tail (Array.sub t.ring 0 (3 * t.r_head)));
    t.r_head <- 0
  end;
  let b = 3 * ((t.r_head + t.r_len) mod (Array.length t.ring / 3)) in
  t.ring.(b) <- cat;
  t.ring.(b + 1) <- start;
  t.ring.(b + 2) <- stop;
  t.r_len <- t.r_len + 1

let bump_blocking c sem dt =
  let i = ref 0 in
  while !i < c.c_bn && c.c_bsem.(!i) <> sem do
    incr i
  done;
  if !i = c.c_bn then begin
    if c.c_bn = Array.length c.c_bsem then begin
      c.c_bsem <- grow c.c_bsem;
      c.c_btime <- grow c.c_btime
    end;
    c.c_bsem.(!i) <- sem;
    c.c_btime.(!i) <- 0;
    c.c_bn <- c.c_bn + 1
  end;
  c.c_btime.(!i) <- c.c_btime.(!i) + dt

(* The semaphore to blame when [pt] sits behind the lower-base-priority
   [runner]: the semaphore whose inheritance boosted the runner if one
   is active, else the runner's most recently acquired held semaphore
   (a non-inheriting critical section under a non-preemptive or
   EDF-order inversion), else unattributed. *)
let inversion_sem runner =
  if runner.inherit_sem >= 0 then runner.inherit_sem
  else if runner.n_held > 0 then runner.held.(runner.n_held - 1)
  else -1

(* Bill [remainder] of a span to [pt]'s open job by the task's state. *)
let classify t pt remainder =
  let c = pt.comp in
  match (pt.tstate, t.runner) with
  | S_running, _ -> c.c_exec <- c.c_exec + remainder
  | S_suspended, _ -> c.c_suspend <- c.c_suspend + remainder
  | S_idle, _ ->
    (* a job is open but its thread shows no state yet — count as gap
       so conservation still holds *)
    c.c_gap <- c.c_gap + remainder
  | (S_ready | S_blocked_sem | S_approach), Some r when r.pt_rank < pt.pt_rank
    ->
    c.c_interference.(r.pt_rank) <- c.c_interference.(r.pt_rank) + remainder
  | S_ready, Some r when r != pt -> bump_blocking c (inversion_sem r) remainder
  | S_ready, _ -> c.c_gap <- c.c_gap + remainder
  | (S_blocked_sem | S_approach), _ -> bump_blocking c pt.pt_sem remainder

(* Attribute the span [t.mark, now) to every open job, then advance
   the mark.  The overhead portion of the span is computed once from
   the segment ring and billed ambiently to each open job; the
   remainder is classified by the owning task's state. *)
let step t now =
  let dt = Model.Time.sub now t.mark in
  if dt > 0 then begin
    let scratch = t.ovh_scratch in
    let total_ovh = ref 0 and continue = ref true and touched = ref 0 in
    while t.r_len > 0 && !continue do
      let b = 3 * t.r_head in
      let start = t.ring.(b + 1) and stop = t.ring.(b + 2) in
      if start >= now then continue := false
      else begin
        let span = Int.min stop now - Int.max start t.mark in
        if span > 0 then begin
          let cat = t.ring.(b) in
          if scratch.(cat) = 0 then begin
            t.ovh_touched.(!touched) <- cat;
            incr touched
          end;
          scratch.(cat) <- scratch.(cat) + span;
          total_ovh := !total_ovh + span
        end;
        if stop <= now then begin
          t.r_head <- (t.r_head + 1) mod (Array.length t.ring / 3);
          t.r_len <- t.r_len - 1
        end
        else (* consumed up to [now]; the rest belongs to later spans *)
          continue := false
      end
    done;
    let remainder = dt - !total_ovh in
    for rank = 0 to Array.length t.tasks - 1 do
      let pt = t.tasks.(rank) in
      if pt.j_open then begin
        for k = 0 to !touched - 1 do
          let i = t.ovh_touched.(k) in
          pt.comp.c_overhead.(i) <- pt.comp.c_overhead.(i) + scratch.(i)
        done;
        if remainder > 0 then classify t pt remainder
      end
    done;
    for k = 0 to !touched - 1 do
      scratch.(t.ovh_touched.(k)) <- 0
    done;
    t.mark <- now
  end
  else if now > t.mark then t.mark <- now

let nonzero l = List.filter (fun (_, v) -> v > 0) l
let ranked a = nonzero (List.mapi (fun r v -> (r, v)) (Array.to_list a))

let breakdown_of pt ~response ~residual =
  let c = pt.comp in
  {
    b_tid = pt.pt_id;
    b_job = pt.j_num;
    b_response = response;
    b_exec = c.c_exec;
    b_backlog = c.c_backlog;
    b_interference = ranked c.c_interference;
    b_blocking =
      List.sort compare
        (nonzero (List.init c.c_bn (fun i -> (c.c_bsem.(i), c.c_btime.(i)))));
    b_overhead =
      nonzero
        (List.map
           (fun cat -> (cat, c.c_overhead.(Sim.Trace.ovh_index cat)))
           Sim.Trace.ovh_categories);
    b_suspend = c.c_suspend;
    b_gap = c.c_gap;
    b_irqs = c.c_irqs;
    b_residual = residual;
  }

let array_sum a = Array.fold_left ( + ) 0 a

(* Fold a closed job into the running maxima straight from its
   components; the breakdown lists are built only for a new worst job
   or for [on_complete] callbacks. *)
let close_job t pt ~response =
  let c = pt.comp in
  let blocking = ref 0 in
  for i = 0 to c.c_bn - 1 do
    blocking := !blocking + c.c_btime.(i)
  done;
  let ovh = array_sum c.c_overhead in
  for r = 0 to Array.length c.c_interference - 1 do
    let v = c.c_interference.(r) in
    if v > pt.max_interference.(r) then pt.max_interference.(r) <- v
  done;
  let residual =
    response
    - (c.c_exec + c.c_backlog + array_sum c.c_interference + !blocking + ovh
     + c.c_suspend + c.c_gap)
  in
  pt.jobs <- pt.jobs + 1;
  pt.max_exec <- Int.max pt.max_exec c.c_exec;
  pt.max_blocking_total <- Int.max pt.max_blocking_total !blocking;
  pt.max_ovh_total <- Int.max pt.max_ovh_total ovh;
  pt.max_irqs <- Int.max pt.max_irqs c.c_irqs;
  pt.max_abs_residual <- Int.max pt.max_abs_residual (abs residual);
  if residual <> 0 then pt.residual_violations <- pt.residual_violations + 1;
  let worst = response >= pt.max_response || pt.worst = None in
  if worst || t.callbacks <> [] then begin
    let b = breakdown_of pt ~response ~residual in
    if worst then begin
      pt.max_response <- Int.max pt.max_response response;
      pt.worst <- Some b
    end;
    List.iter (fun fn -> fn b) t.callbacks
  end;
  pt.j_open <- false

let observe t ({ at; entry } : Sim.Trace.stamped) =
  step t at;
  match entry with
  | Overhead { category; cost } ->
    if cost > 0 then begin
      let start = Int.max at t.ovh_cursor in
      push_segment t (Sim.Trace.ovh_index category) start (start + cost);
      t.ovh_cursor <- start + cost
    end
  | Job_release { tid; job; deadline } -> (
    match find t tid with
    | None -> ()
    | Some pt ->
      let release = Model.Time.sub deadline pt.pt_deadline in
      (* should not happen — one job open per task — but close
         defensively so attribution never leaks across jobs *)
      if pt.j_open then
        close_job t pt ~response:(Model.Time.sub at pt.j_release);
      let c = pt.comp in
      c.c_exec <- 0;
      c.c_backlog <- Int.max 0 (Model.Time.sub at release);
      Array.fill c.c_interference 0 (Array.length c.c_interference) 0;
      c.c_bn <- 0;
      Array.fill c.c_overhead 0 (Array.length c.c_overhead) 0;
      c.c_suspend <- 0;
      c.c_gap <- 0;
      c.c_irqs <- 0;
      pt.j_open <- true;
      pt.j_num <- job;
      pt.j_release <- release;
      if not pt.released then pt.first_release <- release;
      pt.released <- true;
      pt.last_release <- release;
      if pt.tstate <> S_running then pt.tstate <- S_ready)
  | Job_complete { tid; job = _; response } -> (
    match find t tid with
    | Some pt when pt.j_open -> close_job t pt ~response
    | _ -> ())
  | Job_killed { tid; _ } -> (
    match find t tid with
    | Some pt when pt.j_open ->
      pt.j_open <- false;
      pt.killed <- pt.killed + 1
    | _ -> ())
  | Context_switch { from_tid; to_tid } ->
    (match from_tid with
    | Some tid -> (
      match find t tid with
      | Some pt when pt.tstate = S_running -> pt.tstate <- S_ready
      | _ -> ())
    | None -> ());
    (match to_tid with
    | Some tid -> (
      let cell = find t tid in
      t.runner <- cell;
      match cell with Some pt -> pt.tstate <- S_running | None -> ())
    | None -> t.runner <- None)
  | Thread_block { tid; reason } -> (
    match find t tid with
    | None -> ()
    | Some pt ->
      (match reason with
      | "sem" ->
        pt.tstate <- S_blocked_sem;
        pt.pt_sem <- pt.pending_sem
      | "approach" ->
        (* the Approach_parked entry that follows names the sem *)
        pt.tstate <- S_approach;
        pt.pt_sem <- -1
      | "dormant" | "killed" -> pt.tstate <- S_idle
      | _ -> pt.tstate <- S_suspended);
      (match t.runner with
      | Some r when r == pt -> t.runner <- None
      | _ -> ()))
  | Thread_unblock { tid } -> (
    match find t tid with
    | Some pt -> pt.tstate <- S_ready
    | None -> ())
  | Approach_parked { tid; sem } -> (
    match find t tid with
    | Some pt ->
      pt.tstate <- S_approach;
      pt.pt_sem <- sem
    | None -> ())
  | Sem_blocked { tid; sem } -> (
    match find t tid with
    | Some pt -> pt.pending_sem <- sem
    | None -> ())
  | Sem_acquired { tid; sem } -> (
    match find t tid with
    | Some pt ->
      if pt.n_held = Array.length pt.held then pt.held <- grow pt.held;
      pt.held.(pt.n_held) <- sem;
      pt.n_held <- pt.n_held + 1;
      pt.pending_sem <- -1
    | None -> ())
  | Sem_released { tid; sem } -> (
    match find t tid with
    | Some pt ->
      (* drop the most recent acquisition of [sem] *)
      let i = ref (pt.n_held - 1) in
      while !i >= 0 && pt.held.(!i) <> sem do
        decr i
      done;
      if !i >= 0 then begin
        Array.blit pt.held (!i + 1) pt.held !i (pt.n_held - !i - 1);
        pt.n_held <- pt.n_held - 1
      end
    | None -> ())
  | Priority_inherit { holder; from_tid } -> (
    match (find t holder, find t from_tid) with
    | Some h, Some f ->
      h.inherit_sem <-
        (match f.tstate with
        | (S_blocked_sem | S_approach) when f.pt_sem >= 0 -> f.pt_sem
        | _ -> f.pending_sem)
    | _ -> ())
  | Priority_restore { holder } -> (
    match find t holder with
    | Some pt -> pt.inherit_sem <- -1
    | None -> ())
  | Interrupt _ ->
    for rank = 0 to Array.length t.tasks - 1 do
      let pt = t.tasks.(rank) in
      if pt.j_open then pt.comp.c_irqs <- pt.comp.c_irqs + 1
    done
  | Deadline_miss _ | Budget_overrun _ | Job_shed _ | Msg_sent _
  | Msg_received _ | State_written _ | State_read _ | Block_alloc _
  | Block_free _ | Pool_oom _ | Pool_leak _ | Quota_exceeded _
  | Input_word _ | Branch _ | Net_frame _ | Net_retry _ | Net_timeout _
  | Net_arb _ | Note _ ->
    ()

let attach t probe = Probe.subscribe probe ~mask:Probe.all_mask (observe t)

(* ------------------------------------------------------------------ *)

type task_summary = {
  s_id : int;
  s_rank : int;
  s_jobs : int;
  s_killed : int;
  s_max_response : Model.Time.t;
  s_worst : breakdown option;
  s_max_exec : Model.Time.t;
  s_max_interference : (int * Model.Time.t) list;
  s_max_blocking_total : Model.Time.t;
  s_max_overhead_total : Model.Time.t;
  s_max_irqs : int;
  s_first_release : Model.Time.t option;
  s_last_release : Model.Time.t option;
  s_max_abs_residual : Model.Time.t;
  s_residual_violations : int;
}

let summary_of pt =
  let release v = if pt.released then Some v else None in
  {
    s_id = pt.pt_id;
    s_rank = pt.pt_rank;
    s_jobs = pt.jobs;
    s_killed = pt.killed;
    s_max_response = pt.max_response;
    s_worst = pt.worst;
    s_max_exec = pt.max_exec;
    s_max_interference = ranked pt.max_interference;
    s_max_blocking_total = pt.max_blocking_total;
    s_max_overhead_total = pt.max_ovh_total;
    s_max_irqs = pt.max_irqs;
    s_first_release = release pt.first_release;
    s_last_release = release pt.last_release;
    s_max_abs_residual = pt.max_abs_residual;
    s_residual_violations = pt.residual_violations;
  }

let summary t ~tid = Option.map summary_of (find t tid)
let summaries t = Array.to_list t.tasks |> List.map summary_of

let residual_violations t =
  Array.fold_left (fun acc pt -> acc + pt.residual_violations) 0 t.tasks
