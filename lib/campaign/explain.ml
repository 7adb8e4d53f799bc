let run ~name ~sched ~horizon ~seed ~task (scenario : Workload.Scenario.t) =
  (* static terms: the campaign's own (all RM-specific); tasks RTA does
     not cover, or any other scheduler, get no bound columns *)
  let statics = Eval.statics scenario in
  let bounded i = sched = Emeralds.Sched.Rm && statics.eligible.(i) in
  let rta_bound i =
    match statics.rta.(i) with Some b when bounded i -> Some b | _ -> None
  in
  let blame =
    Obs.Blame.create ~tasks:(Obs.Blame.of_taskset scenario.taskset) ()
  in
  let observer k = Obs.Blame.attach blame (Emeralds.Kernel.probe k) in
  let outcome =
    Fault.Inject.run
      {
        (Fault.Inject.default_config ~scenario ~spec:sched ~horizon ~seed ())
        with
        observer = Some observer;
      }
  in
  let tr = Emeralds.Kernel.trace outcome.kernel in
  let horizon_ms = horizon / Model.Time.ms 1 in
  (* the blame oracle's verdicts; its RM bounds judge no other
     scheduler *)
  let violations s =
    List.filter
      (fun (v : Eval.violation) -> v.term = None || sched = Emeralds.Sched.Rm)
      (Eval.blame_violations statics tr s)
  in
  let misses = Sim.Trace.deadline_misses tr in
  let overruns = Sim.Trace.budget_overruns tr in
  let kills = Sim.Trace.jobs_killed tr in
  let residual = Obs.Blame.residual_violations blame in
  let summaries =
    List.filter
      (fun (s : Obs.Blame.task_summary) ->
        match task with Some tid -> s.s_id = tid | None -> true)
      (Obs.Blame.summaries blame)
  in
  let tasks = Array.to_list (Model.Taskset.tasks scenario.taskset) in
  let missed (s : Obs.Blame.task_summary) =
    let t = List.find (fun (t : Model.Task.t) -> t.id = s.s_id) tasks in
    s.s_max_response > t.deadline
  in
  (* the dominant cause of each missing task's worst job *)
  let verdicts =
    List.filter_map
      (fun (s : Obs.Blame.task_summary) ->
        match s.s_worst with
        | Some bd when missed s ->
          let cause, amount = Obs.Blame.dominant bd in
          Some (s.s_id, Obs.Blame.cause_label cause, amount)
        | _ -> None)
      summaries
  in
  let text () =
    let buf = Buffer.create 2048 in
    Printf.bprintf buf
      "explain: scenario %s, sched %s, horizon %d ms, seed %d\n" name
      (Emeralds.Sched.spec_name sched)
      horizon_ms seed;
    Printf.bprintf buf
      "  %d deadline miss(es), %d overrun(s), %d kill(s), %d conservation \
       violation(s)\n"
      misses overruns kills residual;
    List.iter
      (fun (s : Obs.Blame.task_summary) ->
        let i = s.s_rank in
        Printf.bprintf buf
          "\ntau%d (rank %d): %d job(s), max response %dns%s%s\n" s.s_id i
          s.s_jobs s.s_max_response
          (match rta_bound i with
          | Some b -> Printf.sprintf ", RTA bound %dns" b
          | None -> "")
          (if missed s then "  ** MISSED **" else "");
        match s.s_worst with
        | Some bd ->
          Buffer.add_string buf
            (Format.asprintf "%a" Obs.Blame.pp_breakdown bd);
          if bounded i then begin
            Buffer.add_string buf
              "  cross-validation (worst per component across jobs vs \
               analytical term):\n";
            List.iter
              (fun (term, v, b) ->
                Printf.bprintf buf "  %-22s %10dns <= %10dns  %s\n"
                  (match term with
                  | Eval.Exec -> "exec <= absint demand"
                  | Interference j -> Printf.sprintf "interference(rank %d)" j
                  | Blocking -> "blocking <= lint term"
                  | Overhead -> "overhead <= Table-1")
                  v b
                  (if v <= b then "ok" else "EXCEEDS"))
              (Eval.blame_terms statics ~rank:i s)
          end
        | None -> ())
      summaries;
    List.iter
      (fun (tid, cause, amount) ->
        Printf.bprintf buf
          "\ntau%d missed its deadline: dominant blame %s (%dns)\n" tid cause
          amount)
      verdicts;
    Buffer.contents buf
  in
  let json () =
    let open Util.Json in
    let worst (bd : Obs.Blame.breakdown) =
      let cause, ns = Obs.Blame.dominant bd in
      let cause = String (Obs.Blame.cause_label cause) in
      let term (j, v) = Obj [ ("rank", Int j); ("ns", Int v) ] in
      Obj
        [ ("job", Int bd.b_job); ("response", Int bd.b_response);
          ("exec", Int bd.b_exec); ("backlog", Int bd.b_backlog);
          ("blocking", Int (Obs.Blame.blocking_total bd));
          ("overhead", Int (Obs.Blame.overhead_total bd));
          ("suspend", Int bd.b_suspend); ("gap", Int bd.b_gap);
          ("residual", Int bd.b_residual);
          ("interference", List (List.map term bd.b_interference));
          ("dominant", Obj [ ("cause", cause); ("ns", Int ns) ]) ]
    in
    let task (s : Obs.Blame.task_summary) =
      Obj
        ([ ("tid", Int s.s_id); ("rank", Int s.s_rank); ("jobs", Int s.s_jobs);
           ("max_response", Int s.s_max_response);
           ("missed", Bool (missed s)) ]
        @ Option.fold (rta_bound s.s_rank) ~none:[] ~some:(fun b ->
              [ ("rta_bound", Int b) ])
        @ Option.fold s.s_worst ~none:[] ~some:(fun bd ->
              [ ("worst", worst bd) ]))
    in
    to_string
      (Obj
         [ ("scenario", String name);
           ("sched", String (Emeralds.Sched.spec_name sched));
           ("horizon_ms", Int horizon_ms); ("seed", Int seed);
           ("misses", Int misses); ("overruns", Int overruns);
           ("kills", Int kills); ("residual_violations", Int residual);
           ("tasks", List (List.map task summaries)) ])
    ^ "\n"
  in
  let sarif () =
    let result rule_id tid message =
      {
        Lint.Sarif.rule_id;
        level = Lint.Sarif.Error;
        message;
        logical = Some (Printf.sprintf "%s, task %d" name tid);
      }
    in
    let violation (v : Eval.violation) =
      result
        (if v.term = None then "explain/conservation"
         else "explain/domination")
        v.tid v.message
    in
    let miss (tid, cause, amount) =
      result "explain/miss" tid
        (Printf.sprintf "deadline miss: dominant blame %s (%dns)" cause amount)
    in
    Lint.Sarif.render ~tool_name:"emeralds-explain"
      (List.map violation (List.concat_map violations summaries)
      @ List.map miss verdicts)
    ^ "\n"
  in
  {
    Util.Doc.text;
    json;
    sarif;
    failed =
      misses > 0 || overruns > 0 || kills > 0
      || List.exists (fun s -> violations s <> []) (Obs.Blame.summaries blame);
  }
