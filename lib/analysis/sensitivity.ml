type headroom = {
  task_id : int;
  wcet : Model.Time.t;
  max_wcet : Model.Time.t;
  scale : float;
}

let feasible_with ~cost ~spec taskset ~task_id ~wcet =
  let exception Too_big in
  match
    Model.Taskset.map
      (fun (t : Model.Task.t) ->
        if t.id = task_id then
          if wcet > t.deadline then raise Too_big
          else Model.Task.with_wcet t wcet
        else t)
      taskset
  with
  | scaled -> Feasibility.feasible ~cost ~spec scaled
  | exception Too_big -> false

(* Relative tolerance of the bisection. *)
let tol = 0.01

let headroom_of ~cost ~spec taskset (task : Model.Task.t) =
  let feasible wcet =
    wcet >= 1 && feasible_with ~cost ~spec taskset ~task_id:task.id ~wcet
  in
  if not (feasible task.wcet) then
    { task_id = task.id; wcet = task.wcet; max_wcet = 0; scale = 0.0 }
  else begin
    (* grow until infeasible (deadline caps the search) *)
    let hi = ref (min task.deadline (max (2 * task.wcet) (task.wcet + 1))) in
    while !hi < task.deadline && feasible !hi do
      hi := min task.deadline (2 * !hi)
    done;
    if feasible !hi then
      (* the deadline itself is feasible *)
      {
        task_id = task.id;
        wcet = task.wcet;
        max_wcet = !hi;
        scale = float_of_int !hi /. float_of_int task.wcet;
      }
    else begin
      let lo = ref task.wcet and hi = ref !hi in
      while !hi - !lo > max 1 (int_of_float (tol *. float_of_int !lo)) do
        let mid = (!lo + !hi) / 2 in
        if feasible mid then lo := mid else hi := mid
      done;
      {
        task_id = task.id;
        wcet = task.wcet;
        max_wcet = !lo;
        scale = float_of_int !lo /. float_of_int task.wcet;
      }
    end
  end

let per_task ~cost ~spec taskset =
  Array.to_list
    (Array.map (headroom_of ~cost ~spec taskset) (Model.Taskset.tasks taskset))

let bottleneck ~cost ~spec taskset =
  per_task ~cost ~spec taskset
  |> List.fold_left
       (fun acc h ->
         match acc with
         | Some best when best.scale <= h.scale -> acc
         | _ -> Some h)
       None

let render headrooms =
  let t =
    Util.Tablefmt.create
      ~headers:[ "task"; "wcet"; "max feasible wcet"; "headroom" ]
  in
  List.iter
    (fun h ->
      Util.Tablefmt.add_row t
        [
          Printf.sprintf "tau%d" h.task_id;
          Printf.sprintf "%.2fms" (Model.Time.to_ms_f h.wcet);
          Printf.sprintf "%.2fms" (Model.Time.to_ms_f h.max_wcet);
          Printf.sprintf "%.2fx" h.scale;
        ])
    headrooms;
  Util.Tablefmt.render t
