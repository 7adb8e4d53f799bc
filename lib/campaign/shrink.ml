(* Greedy falsification shrinking.

   A campaign finding arrives on a randomly generated scenario with
   3-8 tasks and a dozen segments each; most of that is noise.  The
   shrinker deletes whole tasks, then individual segments, keeping a
   deletion whenever the *same oracle* still fires and the scenario
   still passes validity (so the shrunk case fails for the original
   reason, not because the deletion orphaned a waiter).  Greedy
   restart-on-success to a fixpoint, bounded by [max_evals]
   re-evaluations. *)

type outcome = {
  spec : Workload.Generator.spec;
  evals : int;  (** oracle re-evaluations spent *)
  tasks_before : int;
  tasks_after : int;
  segs_before : int;
  segs_after : int;
}

let seg_count (spec : Workload.Generator.spec) =
  List.fold_left
    (fun n (t : Workload.Generator.task_spec) -> n + List.length t.g_segs)
    0 spec.s_tasks

(* Does the failure reproduce on [spec]?  Any exception counts as a
   reproduction only for the Crash oracle. *)
let still_fails ~oracle ~ablation ~index spec =
  match Eval.run ~ablation ~index spec with
  | r ->
    List.exists (fun (f : Oracle.finding) -> f.oracle = oracle) r.findings
    && not
         (oracle <> Oracle.Validity
         && List.exists
              (fun (f : Oracle.finding) -> f.oracle = Oracle.Validity)
              r.findings)
  | exception _ -> oracle = Oracle.Crash

let drop_task (spec : Workload.Generator.spec) id =
  {
    spec with
    s_tasks =
      List.filter
        (fun (t : Workload.Generator.task_spec) -> t.g_id <> id)
        spec.s_tasks;
  }

let drop_seg (spec : Workload.Generator.spec) id j =
  {
    spec with
    s_tasks =
      List.map
        (fun (t : Workload.Generator.task_spec) ->
          if t.g_id = id then
            { t with g_segs = List.filteri (fun i _ -> i <> j) t.g_segs }
          else t)
        spec.s_tasks;
  }

let max_evals = 150

let run ~oracle ~ablation ~index
    (spec : Workload.Generator.spec) =
  let evals = ref 0 in
  let tasks_before = List.length spec.s_tasks in
  let segs_before = seg_count spec in
  let check cand =
    if !evals >= max_evals then false
    else begin
      incr evals;
      still_fails ~oracle ~ablation ~index cand
    end
  in
  (* delete whole tasks to a fixpoint *)
  let cur = ref spec in
  let progress = ref true in
  while !progress && !evals < max_evals do
    progress := false;
    let ids =
      List.map (fun (t : Workload.Generator.task_spec) -> t.g_id) !cur.s_tasks
    in
    List.iter
      (fun id ->
        if (not !progress) && List.length !cur.s_tasks > 1 then begin
          let cand = drop_task !cur id in
          if check cand then begin
            cur := cand;
            progress := true
          end
        end)
      ids
  done;
  (* delete individual segments to a fixpoint *)
  progress := true;
  while !progress && !evals < max_evals do
    progress := false;
    List.iter
      (fun (t : Workload.Generator.task_spec) ->
        let n = List.length t.g_segs in
        for j = 0 to n - 1 do
          if (not !progress) && n > 0 then begin
            let cand = drop_seg !cur t.g_id j in
            if check cand then begin
              cur := cand;
              progress := true
            end
          end
        done)
      !cur.s_tasks
  done;
  {
    spec = !cur;
    evals = !evals;
    tasks_before;
    tasks_after = List.length !cur.s_tasks;
    segs_before;
    segs_after = seg_count !cur;
  }
