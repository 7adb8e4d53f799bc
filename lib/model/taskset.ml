type t = { tasks : Task.t array }

let of_list l =
  if l = [] then invalid_arg "Taskset.of_list: empty";
  let ids = List.map (fun (task : Task.t) -> task.id) l in
  let sorted_ids = List.sort_uniq compare ids in
  if List.length sorted_ids <> List.length ids then
    invalid_arg "Taskset.of_list: duplicate task ids";
  let tasks = Array.of_list l in
  Array.sort Task.rm_compare tasks;
  { tasks }

let tasks t = t.tasks
let size t = Array.length t.tasks
let get t i = t.tasks.(i)

let utilization t =
  Array.fold_left (fun acc task -> acc +. Task.utilization task) 0.0 t.tasks

let hyperperiod t =
  Util.Intmath.lcm_list
    (Array.to_list (Array.map (fun (task : Task.t) -> task.period) t.tasks))

let max_phase t =
  Array.fold_left (fun acc (task : Task.t) -> max acc task.phase) 0 t.tasks

let map f t =
  of_list (Array.to_list (Array.map f t.tasks))

let scale_one_wcet factor (task : Task.t) =
  let scaled =
    max 1 (int_of_float (Float.round (float_of_int task.wcet *. factor)))
  in
  if scaled > task.deadline then None else Some (Task.with_wcet task scaled)

let scale_wcets t factor =
  if factor <= 0.0 then invalid_arg "Taskset.scale_wcets: factor <= 0";
  let exception Infeasible in
  let scale task =
    match scale_one_wcet factor task with
    | Some task' -> task'
    | None -> raise Infeasible
  in
  match map scale t with set -> Some set | exception Infeasible -> None

let scale_periods_down t factor =
  if factor <= 0 then invalid_arg "Taskset.scale_periods_down: factor <= 0";
  let exception Infeasible in
  let scale (task : Task.t) =
    let period = max 1 (task.period / factor) in
    let deadline = max 1 (task.deadline / factor) in
    let phase = task.phase / factor in
    if task.wcet > deadline then raise Infeasible
    else
      Task.make ~name:task.name ~deadline ~phase
        ~blocking_calls:task.blocking_calls ~id:task.id ~period
        ~wcet:task.wcet ()
  in
  match map scale t with set -> Some set | exception Infeasible -> None
