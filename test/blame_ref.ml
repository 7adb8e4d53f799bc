(* Reference attributor for test_blame: the same attribution model as
   [Obs.Blame] in its direct form — a Hashtbl by task id, a [Queue] of
   overhead segments, a fresh component record per job and a breakdown
   built at every close.  Its output types are [Obs.Blame]'s, so the
   two compare structurally on presets, generated scenarios and random
   event streams. *)

type breakdown = Obs.Blame.breakdown = {
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

type task_summary = Obs.Blame.task_summary = {
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

let sum l = List.fold_left (fun acc (_, v) -> acc + v) 0 l
let blocking_total b = sum b.b_blocking
let overhead_total b = sum b.b_overhead

let components_total b =
  b.b_exec + b.b_backlog + sum b.b_interference + sum b.b_blocking
  + sum b.b_overhead + b.b_suspend + b.b_gap

type task_state =
  | S_idle  (* dormant / between jobs *)
  | S_ready
  | S_running
  | S_blocked_sem of int
  | S_approach of int
  | S_suspended

type components = {
  mutable c_exec : int;
  c_backlog : int;
  c_interference : int array; (* by preempting task's rank *)
  c_blocking : (int, int ref) Hashtbl.t; (* sem (-1 = unknown) -> time *)
  c_overhead : int array; (* by Sim.Trace.ovh_index *)
  mutable c_suspend : int;
  mutable c_gap : int;
  mutable c_irqs : int;
}

type open_job = { j_num : int; j_release : Model.Time.t; j_comp : components }

type per_task = {
  pt_id : int;
  pt_rank : int;
  pt_deadline : Model.Time.t; (* relative *)
  mutable open_job : open_job option;
  mutable jobs : int;
  mutable killed : int;
  mutable worst : breakdown option;
  mutable max_response : int;
  mutable max_exec : int;
  max_interference : int array;
  mutable max_blocking_total : int;
  mutable max_ovh_total : int;
  mutable max_irqs : int;
  mutable first_release : Model.Time.t option;
  mutable last_release : Model.Time.t option;
  mutable max_abs_residual : int;
  mutable residual_violations : int;
  (* live thread state *)
  mutable tstate : task_state;
  mutable pending_sem : int; (* sem of the last Sem_blocked, -1 *)
  mutable held : int list; (* held semaphores, most recent first *)
  mutable inherit_sem : int; (* sem driving an active inheritance, -1 *)
}

type seg = { sg_cat : int; sg_start : int; mutable sg_end : int }

type t = {
  tasks : per_task array; (* rank order *)
  by_id : (int, per_task) Hashtbl.t;
  mutable mark : Model.Time.t;
  mutable runner : per_task option;
  ovh_fifo : seg Queue.t;
  mutable ovh_cursor : int; (* mirror of the kernel's busy_until *)
  ovh_scratch : int array; (* per-span overhead by category *)
  mutable callbacks : (breakdown -> unit) list;
}

let n_ranks t = Array.length t.tasks

let create ~tasks () =
  let n = Array.length tasks in
  let pts =
    Array.mapi
      (fun rank (id, _period, deadline) ->
        {
          pt_id = id;
          pt_rank = rank;
          pt_deadline = deadline;
          open_job = None;
          jobs = 0;
          killed = 0;
          worst = None;
          max_response = 0;
          max_exec = 0;
          max_interference = Array.make n 0;
          max_blocking_total = 0;
          max_ovh_total = 0;
          max_irqs = 0;
          first_release = None;
          last_release = None;
          max_abs_residual = 0;
          residual_violations = 0;
          tstate = S_idle;
          pending_sem = -1;
          held = [];
          inherit_sem = -1;
        })
      tasks
  in
  let by_id = Hashtbl.create (max 1 n) in
  Array.iter (fun pt -> Hashtbl.replace by_id pt.pt_id pt) pts;
  {
    tasks = pts;
    by_id;
    mark = 0;
    runner = None;
    ovh_fifo = Queue.create ();
    ovh_cursor = 0;
    ovh_scratch = Array.make Sim.Trace.ovh_count 0;
    callbacks = [];
  }

let of_taskset ts =
  Array.map
    (fun (task : Model.Task.t) -> (task.Model.Task.id, task.period, task.deadline))
    (Model.Taskset.tasks ts)

let on_complete t fn = t.callbacks <- t.callbacks @ [ fn ]
let find t tid = Hashtbl.find_opt t.by_id tid

let fresh_components t ~backlog =
  {
    c_exec = 0;
    c_backlog = backlog;
    c_interference = Array.make (n_ranks t) 0;
    c_blocking = Hashtbl.create 4;
    c_overhead = Array.make Sim.Trace.ovh_count 0;
    c_suspend = 0;
    c_gap = 0;
    c_irqs = 0;
  }

let bump_blocking comp sem dt =
  match Hashtbl.find_opt comp.c_blocking sem with
  | Some r -> r := !r + dt
  | None -> Hashtbl.add comp.c_blocking sem (ref dt)

(* The semaphore to blame when [pt] sits behind the lower-base-priority
   [runner]: the semaphore whose inheritance boosted the runner if one
   is active, else the runner's most recently acquired held semaphore
   (a non-inheriting critical section under a non-preemptive or
   EDF-order inversion), else unattributed. *)
let inversion_sem runner =
  if runner.inherit_sem >= 0 then runner.inherit_sem
  else match runner.held with s :: _ -> s | [] -> -1

(* Attribute the span [t.mark, now) to every open job, then advance
   the mark.  The overhead portion of the span is computed once from
   the segment FIFO and billed ambiently to each open job; the
   remainder is classified by the owning task's state. *)
let step t now =
  let dt = Model.Time.sub now t.mark in
  if dt > 0 then begin
    let scratch = t.ovh_scratch in
    Array.fill scratch 0 (Array.length scratch) 0;
    let total_ovh = ref 0 in
    let continue = ref true in
    while (not (Queue.is_empty t.ovh_fifo)) && !continue do
      let sg = Queue.peek t.ovh_fifo in
      if sg.sg_start >= now then continue := false
      else begin
        let hi = min sg.sg_end now in
        let lo = max sg.sg_start t.mark in
        if hi > lo then begin
          scratch.(sg.sg_cat) <- scratch.(sg.sg_cat) + (hi - lo);
          total_ovh := !total_ovh + (hi - lo)
        end;
        if sg.sg_end <= now then ignore (Queue.pop t.ovh_fifo)
        else begin
          (* consumed up to [now]; the rest belongs to later spans *)
          continue := false
        end
      end
    done;
    let remainder = dt - !total_ovh in
    Array.iter
      (fun pt ->
        match pt.open_job with
        | None -> ()
        | Some j ->
          let comp = j.j_comp in
          Array.iteri
            (fun i v -> if v > 0 then comp.c_overhead.(i) <- comp.c_overhead.(i) + v)
            scratch;
          if remainder > 0 then begin
            match pt.tstate with
            | S_running -> comp.c_exec <- comp.c_exec + remainder
            | S_suspended -> comp.c_suspend <- comp.c_suspend + remainder
            | S_idle ->
              (* a job is open but its thread shows no state yet —
                 count as gap so conservation still holds *)
              comp.c_gap <- comp.c_gap + remainder
            | S_ready -> (
              match t.runner with
              | Some r when r.pt_rank < pt.pt_rank ->
                comp.c_interference.(r.pt_rank) <-
                  comp.c_interference.(r.pt_rank) + remainder
              | Some r when r != pt ->
                bump_blocking comp (inversion_sem r) remainder
              | _ -> comp.c_gap <- comp.c_gap + remainder)
            | S_blocked_sem s | S_approach s -> (
              match t.runner with
              | Some r when r.pt_rank < pt.pt_rank ->
                comp.c_interference.(r.pt_rank) <-
                  comp.c_interference.(r.pt_rank) + remainder
              | _ -> bump_blocking comp s remainder)
          end)
      t.tasks;
    t.mark <- now
  end
  else if now > t.mark then t.mark <- now

let breakdown_of pt j ~response =
  let comp = j.j_comp in
  let interference =
    Array.to_list comp.c_interference
    |> List.mapi (fun r v -> (r, v))
    |> List.filter (fun (_, v) -> v > 0)
  in
  let blocking =
    Hashtbl.fold (fun s r acc -> (s, !r) :: acc) comp.c_blocking []
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort compare
  in
  let overhead =
    List.filter_map
      (fun c ->
        let v = comp.c_overhead.(Sim.Trace.ovh_index c) in
        if v > 0 then Some (c, v) else None)
      Sim.Trace.ovh_categories
  in
  let b =
    {
      b_tid = pt.pt_id;
      b_job = j.j_num;
      b_response = response;
      b_exec = comp.c_exec;
      b_backlog = comp.c_backlog;
      b_interference = interference;
      b_blocking = blocking;
      b_overhead = overhead;
      b_suspend = comp.c_suspend;
      b_gap = comp.c_gap;
      b_irqs = comp.c_irqs;
      b_residual = 0;
    }
  in
  { b with b_residual = response - components_total b }

let close_job t pt j ~response =
  let b = breakdown_of pt j ~response in
  pt.jobs <- pt.jobs + 1;
  pt.max_exec <- max pt.max_exec b.b_exec;
  List.iter
    (fun (r, v) ->
      pt.max_interference.(r) <- max pt.max_interference.(r) v)
    b.b_interference;
  pt.max_blocking_total <- max pt.max_blocking_total (blocking_total b);
  pt.max_ovh_total <- max pt.max_ovh_total (overhead_total b);
  pt.max_irqs <- max pt.max_irqs b.b_irqs;
  let res = abs b.b_residual in
  pt.max_abs_residual <- max pt.max_abs_residual res;
  if b.b_residual <> 0 then
    pt.residual_violations <- pt.residual_violations + 1;
  if response >= pt.max_response || pt.worst = None then begin
    pt.max_response <- max pt.max_response response;
    pt.worst <- Some b
  end;
  pt.open_job <- None;
  List.iter (fun fn -> fn b) t.callbacks

let observe t ({ at; entry } : Sim.Trace.stamped) =
  step t at;
  match entry with
  | Overhead { category; cost } ->
    if cost > 0 then begin
      let start = max at t.ovh_cursor in
      Queue.push
        { sg_cat = Sim.Trace.ovh_index category; sg_start = start;
          sg_end = start + cost }
        t.ovh_fifo;
      t.ovh_cursor <- start + cost
    end
  | Job_release { tid; job; deadline } -> (
    match find t tid with
    | None -> ()
    | Some pt ->
      let release = Model.Time.sub deadline pt.pt_deadline in
      let backlog = max 0 (Model.Time.sub at release) in
      (match pt.open_job with
      | Some j ->
        (* should not happen — one job open per task — but close
           defensively so attribution never leaks across jobs *)
        close_job t pt j ~response:(Model.Time.sub at j.j_release)
      | None -> ());
      pt.open_job <-
        Some { j_num = job; j_release = release;
               j_comp = fresh_components t ~backlog };
      if pt.first_release = None then pt.first_release <- Some release;
      pt.last_release <- Some release;
      if pt.tstate <> S_running then pt.tstate <- S_ready)
  | Job_complete { tid; job = _; response } -> (
    match find t tid with
    | None -> ()
    | Some pt -> (
      match pt.open_job with
      | Some j -> close_job t pt j ~response
      | None -> ()))
  | Job_killed { tid; _ } -> (
    match find t tid with
    | None -> ()
    | Some pt ->
      if pt.open_job <> None then begin
        pt.open_job <- None;
        pt.killed <- pt.killed + 1
      end)
  | Context_switch { from_tid; to_tid } ->
    (match from_tid with
    | Some tid -> (
      match find t tid with
      | Some pt when pt.tstate = S_running -> pt.tstate <- S_ready
      | _ -> ())
    | None -> ());
    (match to_tid with
    | Some tid -> (
      match find t tid with
      | Some pt ->
        pt.tstate <- S_running;
        t.runner <- Some pt
      | None -> t.runner <- None)
    | None -> t.runner <- None)
  | Thread_block { tid; reason } -> (
    match find t tid with
    | None -> ()
    | Some pt ->
      (match reason with
      | "sem" -> pt.tstate <- S_blocked_sem pt.pending_sem
      | "approach" ->
        (* the Approach_parked entry that follows names the sem *)
        pt.tstate <- S_approach (-1)
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
    | Some pt -> pt.tstate <- S_approach sem
    | None -> ())
  | Sem_blocked { tid; sem } -> (
    match find t tid with
    | Some pt -> pt.pending_sem <- sem
    | None -> ())
  | Sem_acquired { tid; sem } -> (
    match find t tid with
    | Some pt ->
      pt.held <- sem :: pt.held;
      pt.pending_sem <- -1
    | None -> ())
  | Sem_released { tid; sem } -> (
    match find t tid with
    | Some pt ->
      let rec drop = function
        | [] -> []
        | s :: rest -> if s = sem then rest else s :: drop rest
      in
      pt.held <- drop pt.held
    | None -> ())
  | Priority_inherit { holder; from_tid } -> (
    match (find t holder, find t from_tid) with
    | Some h, Some f ->
      let sem =
        match f.tstate with
        | S_blocked_sem s | S_approach s when s >= 0 -> s
        | _ -> f.pending_sem
      in
      h.inherit_sem <- sem
    | _ -> ())
  | Priority_restore { holder } -> (
    match find t holder with
    | Some pt -> pt.inherit_sem <- -1
    | None -> ())
  | Interrupt _ ->
    Array.iter
      (fun pt ->
        match pt.open_job with
        | Some j -> j.j_comp.c_irqs <- j.j_comp.c_irqs + 1
        | None -> ())
      t.tasks
  | Deadline_miss _ | Budget_overrun _ | Job_shed _ | Msg_sent _
  | Msg_received _ | State_written _ | State_read _ | Block_alloc _
  | Block_free _ | Pool_oom _ | Pool_leak _ | Quota_exceeded _
  | Input_word _ | Branch _ | Net_frame _ | Net_retry _ | Net_timeout _
  | Net_arb _ | Note _ ->
    ()

let attach t probe =
  Obs.Probe.subscribe probe ~mask:Obs.Probe.all_mask (observe t)

(* ------------------------------------------------------------------ *)

let summary_of pt =
  {
    s_id = pt.pt_id;
    s_rank = pt.pt_rank;
    s_jobs = pt.jobs;
    s_killed = pt.killed;
    s_max_response = pt.max_response;
    s_worst = pt.worst;
    s_max_exec = pt.max_exec;
    s_max_interference =
      (Array.to_list pt.max_interference
      |> List.mapi (fun r v -> (r, v))
      |> List.filter (fun (_, v) -> v > 0));
    s_max_blocking_total = pt.max_blocking_total;
    s_max_overhead_total = pt.max_ovh_total;
    s_max_irqs = pt.max_irqs;
    s_first_release = pt.first_release;
    s_last_release = pt.last_release;
    s_max_abs_residual = pt.max_abs_residual;
    s_residual_violations = pt.residual_violations;
  }

let summary t ~tid = Option.map summary_of (find t tid)
let summaries t = Array.to_list t.tasks |> List.map summary_of
