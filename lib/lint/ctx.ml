open Emeralds

type task_prog = {
  task : Model.Task.t;
  rank : int;
  prog : Types.instr list;
  code : Types.instr array;
}

type t = {
  tasks : task_prog array;
  irq_signals : Types.waitq list;
  irq_writes : State_msg.t list;
}

let make ?(irq_signals = []) ?(irq_writes = []) ~taskset ~programs () =
  let tasks =
    Array.mapi
      (fun rank task ->
        let prog = programs task in
        { task; rank; prog; code = Program.flatten prog })
      (Model.Taskset.tasks taskset)
  in
  { tasks; irq_signals; irq_writes }

let of_scenario (sc : Workload.Scenario.t) =
  make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
    ~taskset:sc.taskset ~programs:sc.programs ()

(* Forward dataflow over the flattened DAG.  All branch targets point
   forward, so one pass in pc order reaches every program point with
   its final joined in-state: by the time pc is processed, every
   predecessor (all at smaller pcs) has already fed it. *)
let dataflow ~init ~join ~transfer (tp : task_prog) =
  let n = Array.length tp.code in
  let before = Array.make (n + 1) None in
  before.(0) <- Some init;
  let feed pc v =
    before.(pc) <-
      (match before.(pc) with None -> Some v | Some old -> Some (join old v))
  in
  for pc = 0 to n - 1 do
    match before.(pc) with
    | None -> () (* unreachable: a flattened program has none, but be safe *)
    | Some st -> (
      match tp.code.(pc) with
      | Types.Br_input target ->
        feed (pc + 1) st;
        feed target st
      | Types.Jump target -> feed target st
      | instr -> feed (pc + 1) (transfer ~pc instr st))
  done;
  let final = match before.(n) with Some st -> st | None -> init in
  (Array.map (function Some st -> st | None -> init) (Array.sub before 0 n),
   final)

(* --- held-semaphore analysis ----------------------------------------- *)

(* Held multisets, acquisition order (oldest first).  [must] holds on
   every path to the point, [may] on at least one; they coincide until
   the first branch whose arms disagree. *)
type held = { must : Types.sem list; may : Types.sem list }

let count held (s : Types.sem) =
  List.length
    (List.filter (fun (h : Types.sem) -> h.Types.sem_id = s.Types.sem_id) held)

(* Drop the most recent acquisition of [s] from a held list kept in
   acquisition order (oldest first). *)
let drop_latest held (s : Types.sem) =
  let rec drop_first = function
    | [] -> []
    | x :: rest when x.Types.sem_id = s.Types.sem_id -> rest
    | x :: rest -> x :: drop_first rest
  in
  List.rev (drop_first (List.rev held))

(* Multiset join, keeping [a]'s acquisition order for the sems it
   mentions.  [limit a b]: per sem, min of the counts (intersection);
   [extend a b]: per sem, max of the counts (union), extras appended. *)
let nth_occurrence () =
  let seen = Hashtbl.create 4 in
  fun (s : Types.sem) ->
    let k = s.Types.sem_id in
    let n = match Hashtbl.find_opt seen k with Some n -> n | None -> 0 in
    Hashtbl.replace seen k (n + 1);
    n

let limit a b =
  let occ = nth_occurrence () in
  List.filter (fun s -> occ s < count b s) a

let extend a b =
  let occ = nth_occurrence () in
  a @ List.filter (fun s -> occ s >= count a s) b

let held_join a b =
  { must = limit a.must b.must; may = extend a.may b.may }

let held_walk tp =
  let transfer ~pc:_ instr (h : held) =
    match instr with
    | Types.Acquire s -> { must = h.must @ [ s ]; may = h.may @ [ s ] }
    | Types.Release s ->
      { must = drop_latest h.must s; may = drop_latest h.may s }
    | _ -> h
  in
  dataflow ~init:{ must = []; may = [] } ~join:held_join ~transfer tp
