type instr =
  | ICompute of int
  | IAcquire of int
  | IRelease of int
  | IWait of int
  | ITimed_wait of int * int
  | ISignal of int
  | IBroadcast of int
  | ISend of int
  | IRecv of int
  | ISwrite of int
  | ISread_begin of int
  | ISread_end of int
  | IDelay of int
  | IAlloc of int
  | IFree of int
  | IBr_input of int
      (* nondeterministic two-way branch: the checker explores both
         outcomes; the target is a machine pc (forward) *)
  | IJump of int  (* unconditional forward jump, machine pc *)

type release_model = Periodic | Sporadic of { min_ia : int; max_ia : int }

type mtask = {
  idx : int;
  tid : int;
  task_name : string;
  period : int;
  phase : int;
  deadline : int;
  wcet : int;
  code : instr array;
  release : release_model;
  pure_from : bool array;
}

type irq_src = {
  src_irq : int;
  min_ia : int;
  max_ia : int;
  sig_wqs : int list;
  wr_sms : int list;
}

type sched = Fp | Edf

type t = {
  model_name : string;
  tasks : mtask array;
  sem_ids : int array;
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
  read_span : int;
}

(* Object registries keyed by physical identity: kernel objects are
   mutable records without global ids shared across object kinds, so
   the compiler interns each distinct object and hands out dense
   indices. *)
type 'a registry = { mutable objs : 'a list (* reversed *); mutable n : int }

let registry () = { objs = []; n = 0 }

let intern reg x =
  let rec find i = function
    | [] -> None
    | y :: _ when y == x -> Some i
    | _ :: tl -> find (i - 1) tl
  in
  match find (reg.n - 1) reg.objs with
  | Some i -> i
  | None ->
    let i = reg.n in
    reg.objs <- x :: reg.objs;
    reg.n <- i + 1;
    i

let contents reg = Array.of_list (List.rev reg.objs)

let of_scenario ?(sched = Fp) ?(read_span = 0) ?(sporadic = []) (s : Workload.Scenario.t)
    =
  if read_span < 0 then invalid_arg "Mc.Machine.of_scenario: negative read_span";
  List.iter
    (fun (tid, lo, hi) ->
      if lo <= 0 || hi < lo then
        invalid_arg
          (Printf.sprintf "Mc.Machine.of_scenario: bad sporadic window for task %d"
             tid))
    sporadic;
  let sems = registry () in
  let wqs = registry () in
  let mbs = registry () in
  let sms = registry () in
  let pools = registry () in
  let compile_instr (i : Emeralds.Types.instr) : instr list =
    match i with
    | Emeralds.Types.Compute d -> [ ICompute d ]
    | Emeralds.Types.Acquire sem -> [ IAcquire (intern sems sem) ]
    | Emeralds.Types.Release sem -> [ IRelease (intern sems sem) ]
    | Emeralds.Types.Wait wq -> [ IWait (intern wqs wq) ]
    | Emeralds.Types.Timed_wait (wq, d) -> [ ITimed_wait (intern wqs wq, d) ]
    | Emeralds.Types.Signal wq -> [ ISignal (intern wqs wq) ]
    | Emeralds.Types.Broadcast wq -> [ IBroadcast (intern wqs wq) ]
    | Emeralds.Types.Send (mb, _) -> [ ISend (intern mbs mb) ]
    | Emeralds.Types.Recv mb -> [ IRecv (intern mbs mb) ]
    | Emeralds.Types.State_write (sm, _) -> [ ISwrite (intern sms sm) ]
    | Emeralds.Types.State_read sm ->
      let i = intern sms sm in
      if read_span > 0 then [ ISread_begin i; ICompute read_span; ISread_end i ]
      else [ ISread_begin i; ISread_end i ]
    | Emeralds.Types.Delay d -> [ IDelay d ]
    | Emeralds.Types.Alloc p -> [ IAlloc (intern pools p) ]
    | Emeralds.Types.Free p -> [ IFree (intern pools p) ]
    | Emeralds.Types.Br_input t -> [ IBr_input t ] (* remapped below *)
    | Emeralds.Types.Jump t -> [ IJump t ] (* remapped below *)
    | Emeralds.Types.If_input _ | Emeralds.Types.Repeat _ ->
      invalid_arg "Mc.Machine: structured instruction survived flattening"
  in
  (* Compile the kernel's own executable form.  A source instruction
     may expand to several machine instructions (State_read), so branch
     targets — source pcs — are remapped through a pc table. *)
  let compile_flat (flat : Emeralds.Types.instr array) : instr array =
    let n = Array.length flat in
    let compiled = Array.map compile_instr flat in
    let pc_map = Array.make (n + 1) 0 in
    let cursor = ref 0 in
    Array.iteri
      (fun i chunk ->
        pc_map.(i) <- !cursor;
        cursor := !cursor + List.length chunk)
      compiled;
    pc_map.(n) <- !cursor;
    Array.to_list compiled |> List.concat |> Array.of_list
    |> Array.map (function
         | IBr_input t -> IBr_input pc_map.(t)
         | IJump t -> IJump pc_map.(t)
         | i -> i)
  in
  let task_rows = Array.to_list (Model.Taskset.tasks s.taskset) in
  let tasks =
    Array.of_list
      (List.mapi
         (fun idx (task : Model.Task.t) ->
           let prog = s.programs task in
           let code = compile_flat (Emeralds.Program.flatten prog) in
           let n = Array.length code in
           let pure_from = Array.make (n + 1) true in
           for pc = n - 1 downto 0 do
             pure_from.(pc) <-
               (match code.(pc) with ICompute _ -> pure_from.(pc + 1) | _ -> false)
           done;
           let release =
             match
               List.find_opt (fun (tid, _, _) -> tid = task.Model.Task.id) sporadic
             with
             | Some (_, lo, hi) -> Sporadic { min_ia = lo; max_ia = hi }
             | None -> Periodic
           in
           {
             idx;
             tid = task.Model.Task.id;
             task_name = task.Model.Task.name;
             period = task.Model.Task.period;
             phase = task.Model.Task.phase;
             deadline = task.Model.Task.deadline;
             wcet = task.Model.Task.wcet;
             code;
             release;
             pure_from;
           })
         task_rows)
  in
  List.iter
    (fun (tid, _, _) ->
      if not (Array.exists (fun t -> t.tid = tid) tasks) then
        invalid_arg
          (Printf.sprintf "Mc.Machine.of_scenario: sporadic task %d not in scenario"
             tid))
    sporadic;
  (* Interrupt sources: intern their targets too — an IRQ may signal a
     queue or publish a state message no thread program mentions. *)
  let irqs =
    Array.of_list
      (List.map
         (fun (src : Workload.Scenario.irq_source) ->
           {
             src_irq = src.irq;
             min_ia = src.min_interarrival;
             max_ia = src.max_interarrival;
             sig_wqs = List.map (intern wqs) src.signals;
             wr_sms = List.map (intern sms) src.writes;
           })
         s.irq_sources)
  in
  let sem_objs = contents sems in
  let wq_objs = contents wqs in
  let mb_objs = contents mbs in
  let sm_objs = contents sms in
  let pool_objs = contents pools in
  {
    model_name = s.name;
    tasks;
    sem_ids = Array.map (fun (s : Emeralds.Types.sem) -> s.sem_id) sem_objs;
    wq_ids = Array.map (fun (w : Emeralds.Types.waitq) -> w.wq_id) wq_objs;
    mb_ids = Array.map (fun (m : Emeralds.Types.mailbox) -> m.mb_id) mb_objs;
    mb_cap = Array.map (fun (m : Emeralds.Types.mailbox) -> m.mb_capacity) mb_objs;
    sm_ids = Array.map Emeralds.State_msg.id sm_objs;
    sm_depth = Array.map Emeralds.State_msg.depth sm_objs;
    pool_ids =
      Array.map (fun (p : Emeralds.Types.pool) -> p.pool_id) pool_objs;
    pool_cap =
      Array.map (fun (p : Emeralds.Types.pool) -> p.pool_capacity) pool_objs;
    irqs;
    sched;
    hyperperiod = Model.Taskset.hyperperiod s.taskset;
    read_span;
  }

let n_tasks m = Array.length m.tasks
let task_of_tid m tid = Array.find_opt (fun t -> t.tid = tid) m.tasks
