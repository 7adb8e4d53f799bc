open Emeralds

type sec = { sem : Types.sem; acc : int; inner : int list (* reversed *) }

(* Walk state: open critical sections (innermost first), the id of the
   back-to-back chain the next top-level section joins, and whether the
   program can reach the next acquire without yielding the CPU. *)
type st = { open_s : sec list; chain : int; linked : bool }

(* Join at a control-flow merge.  Sections open on both paths take the
   worse accumulated time and the union of nested acquires (per-path
   maxima); a section open on only one path stays open — it may span
   the merge on that path, and keeping it can only lengthen it.
   [linked] joins with "or": if either path reaches the next acquire
   without yielding, the hand-off chain is possible and a sound bound
   must merge it. *)
let join a b =
  let rec merge xs ys =
    match xs with
    | [] -> ys
    | x :: xs' -> (
      let rec take acc = function
        | [] -> None
        | (y : sec) :: rest when y.sem.sem_id = x.sem.sem_id ->
          Some (y, List.rev_append acc rest)
        | y :: rest -> take (y :: acc) rest
      in
      match take [] ys with
      | Some (y, ys') ->
        {
          x with
          acc = max x.acc y.acc;
          inner = x.inner @ List.filter (fun i -> not (List.mem i x.inner)) y.inner;
        }
        :: merge xs' ys'
      | None -> x :: merge xs' ys)
  in
  {
    open_s = merge a.open_s b.open_s;
    chain = max a.chain b.chain;
    linked = a.linked || b.linked;
  }

(* Walk one program, yielding every critical section.  Nested sections
   (closed while an enclosing one stays open) go to [emit_nested];
   outermost sections go to [emit_top] tagged with the id of the
   back-to-back chain they belong to.  Two top-level sections chain
   when the program goes from the first's [Release] to the next
   [Acquire] without an instruction that yields the CPU: the kernel
   executes that span inside one kernel event, so the releasing task is
   already re-queued when the hand-off happens and can be re-granted
   ahead of higher-priority tasks that have not reached their own
   acquire yet.  Over branches the walk is a forward dataflow with
   per-path maxima at merges; every emitted section is the worst over
   the paths that reach its release. *)
let walk (tp : Ctx.task_prog) ~emit_nested ~emit_top =
  let close st (s : Types.sem) =
    (* innermost matching acquisition *)
    let rec split acc = function
      | [] -> None
      | (sec : sec) :: rest when sec.sem.sem_id = s.Types.sem_id ->
        Some (sec, List.rev_append acc rest)
      | sec :: rest -> split (sec :: acc) rest
    in
    match split [] st.open_s with
    | Some (sec, rest) ->
      let cs =
        Analysis.Blocking.
          {
            task_rank = tp.rank;
            sem = sec.sem.sem_id;
            duration = sec.acc;
            nested = List.rev sec.inner;
            chained = [];
          }
      in
      if rest = [] then begin
        emit_top st.chain cs;
        { st with open_s = rest; linked = true }
      end
      else begin
        emit_nested cs;
        { st with open_s = rest }
      end
    | None -> st (* unmatched release: lock balance reports it *)
  in
  let transfer ~pc:_ instr st =
    let st =
      match instr with
      | Types.Acquire s ->
        let st =
          if st.open_s = [] then
            { st with chain = (if st.linked then st.chain else st.chain + 1); linked = false }
          else st
        in
        (* every already-open section holds across the wait this
           acquire may incur *)
        {
          st with
          open_s =
            { sem = s; acc = 0; inner = [] }
            :: List.map
                 (fun sec -> { sec with inner = s.sem_id :: sec.inner })
                 st.open_s;
        }
      | Types.Release s -> close st s
      | _ -> st
    in
    let bounded_time =
      match instr with
      | Types.Compute c -> c
      | Types.Delay d -> d
      | Types.Timed_wait (_, d) -> d
      | _ -> 0
    in
    let st =
      if bounded_time > 0 then
        {
          st with
          open_s =
            List.map (fun sec -> { sec with acc = sec.acc + bounded_time }) st.open_s;
        }
      else st
    in
    (* at top level, only an instruction that *always* yields the CPU
       breaks the chain: the task is then preempted before its next
       acquire, so a hand-off cannot re-grant it within the same
       blocking episode.  [Wait]/[Timed_wait]/[Recv] may complete
       instantly off pending state (a buffered signal or queued
       message) inside the same kernel event — the condition-variable
       pattern's release/wait/re-acquire chains exactly this way —
       and signals, sends and state-message accesses never yield. *)
    match instr with
    | Types.Compute c when c > 0 ->
      if st.open_s = [] then { st with linked = false } else st
    | Types.Delay _ -> if st.open_s = [] then { st with linked = false } else st
    | _ -> st
  in
  let _, at_end =
    Ctx.dataflow ~init:{ open_s = []; chain = 0; linked = false } ~join ~transfer tp
  in
  (* sections never closed run to the end of the job *)
  let rec drain st =
    match st.open_s with [] -> () | sec :: _ -> drain (close st sec.sem)
  in
  drain at_end

let critical_sections (ctx : Ctx.t) =
  let out = ref [] in
  Array.iter
    (fun tp ->
      walk tp
        ~emit_nested:(fun cs -> out := cs :: !out)
        ~emit_top:(fun _ cs -> out := cs :: !out))
    ctx.tasks;
  List.rev !out

(* Merge each back-to-back chain into one section covering the whole
   episode: summed duration, concatenated inner acquires, and the other
   member semaphores recorded so the merged section qualifies against
   any rank a member would. *)
let merge_chain (members : Analysis.Blocking.critical_section list) =
  match members with
  | [ cs ] -> cs
  | first :: _ :: _ ->
    {
      first with
      duration =
        List.fold_left
          (fun a (cs : Analysis.Blocking.critical_section) -> a + cs.duration)
          0 members;
      nested =
        List.concat_map
          (fun (cs : Analysis.Blocking.critical_section) -> cs.nested)
          members;
      chained =
        List.sort_uniq Stdlib.compare
          (List.filter_map
             (fun (cs : Analysis.Blocking.critical_section) ->
               if cs.sem <> first.sem then Some cs.sem else None)
             members);
    }
  | [] -> invalid_arg "merge_chain: empty chain"

let blocking_sections (ctx : Ctx.t) =
  let out = ref [] in
  Array.iter
    (fun tp ->
      let tops = ref [] in
      walk tp
        ~emit_nested:(fun cs -> out := cs :: !out)
        ~emit_top:(fun id cs -> tops := (id, cs) :: !tops);
      (* chain members are consecutive in program order; group runs of
         equal ids.  Members stay in the list alongside the merged
         section: they carry their own semaphores for ceiling and
         nested-wait lookups, while the merged section dominates the
         per-task maxima.  Keeping both can only enlarge the bound. *)
      let rec group = function
        | [] -> ()
        | (id, cs) :: rest ->
          let same, rest =
            List.partition (fun (id', _) -> id' = id) rest
          in
          let members = cs :: List.map snd same in
          (match members with
          | [ _ ] -> ()
          | _ -> out := merge_chain members :: !out);
          List.iter (fun m -> out := m :: !out) members;
          group rest
      in
      group (List.rev !tops))
    ctx.tasks;
  List.rev !out

let blocking_terms (ctx : Ctx.t) =
  Analysis.Blocking.blocking_terms ~n:(Array.length ctx.tasks)
    (blocking_sections ctx)

let declared_rta (ctx : Ctx.t) =
  let blocking = blocking_terms ctx in
  let rows =
    Array.map
      (fun (tp : Ctx.task_prog) ->
        (tp.task.period, tp.task.deadline, tp.task.wcet))
      ctx.tasks
  in
  Array.mapi (fun i _ -> Analysis.Rta.response_time ~blocking ~tasks:rows i)
    rows

let per_sem (ctx : Ctx.t) =
  let table : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (cs : Analysis.Blocking.critical_section) ->
      let ceiling, worst =
        match Hashtbl.find_opt table cs.sem with
        | Some (c, w) -> (min c cs.task_rank, max w cs.duration)
        | None -> (cs.task_rank, cs.duration)
      in
      Hashtbl.replace table cs.sem (ceiling, worst))
    (critical_sections ctx);
  Hashtbl.fold (fun sem (c, w) acc -> (sem, c, w) :: acc) table []
  |> List.sort Stdlib.compare
