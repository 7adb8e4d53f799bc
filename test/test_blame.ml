(* Per-job blame attribution: the conservation law (components sum
   exactly to each job's observed response), attachment invisibility,
   and cross-validation of each empirical component against its
   analytical bound. *)

open Alcotest

let ms = Model.Time.ms

let fuzz ?(count = 50) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let run_with_blame ?(spec = Emeralds.Sched.Rm) ?enforcement ?input_seed
    ?(horizon = ms 200) (scenario : Workload.Scenario.t) =
  let b =
    Obs.Blame.create ~tasks:(Obs.Blame.of_taskset scenario.taskset) ()
  in
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec
      ~taskset:scenario.taskset ~programs:scenario.programs ?input_seed ()
  in
  (match enforcement with
  | Some _ -> Emeralds.Kernel.set_enforcement k enforcement
  | None -> ());
  Obs.Blame.attach b (Emeralds.Kernel.probe k);
  Emeralds.Kernel.run k ~until:horizon;
  (b, k)

(* Every preset, every job: zero residual, and at least one job closed
   so the check is not vacuous. *)
let test_conservation_presets () =
  List.iter
    (fun name ->
      let scenario = Option.get (Workload.Scenario.make name) in
      let b, _ = run_with_blame scenario in
      let total_jobs =
        List.fold_left
          (fun acc (s : Obs.Blame.task_summary) -> acc + s.s_jobs)
          0 (Obs.Blame.summaries b)
      in
      check bool (name ^ " closed jobs") true (total_jobs > 0);
      check int (name ^ " conservation") 0 (Obs.Blame.residual_violations b);
      List.iter
        (fun (s : Obs.Blame.task_summary) ->
          check int
            (Printf.sprintf "%s tau%d max residual" name s.s_id)
            0 s.s_max_abs_residual)
        (Obs.Blame.summaries b))
    Workload.Scenario.names

(* Attaching the attributor must not perturb the kernel: the trace is
   bit-identical with and without the subscriber. *)
let test_attach_invisible () =
  let scenario = Option.get (Workload.Scenario.make "branchy") in
  let run attach =
    let k =
      Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
        ~taskset:scenario.taskset ~programs:scenario.programs ~input_seed:3 ()
    in
    if attach then begin
      let b =
        Obs.Blame.create ~tasks:(Obs.Blame.of_taskset scenario.taskset) ()
      in
      Obs.Blame.attach b (Emeralds.Kernel.probe k)
    end;
    Emeralds.Kernel.run k ~until:(ms 100);
    Sim.Trace.to_csv (Emeralds.Kernel.trace k)
  in
  check string "trace bit-identical with blame attached" (run false)
    (run true)

(* Conservation across schedulers, enforcement policies and input
   seeds on randomized presets. *)
let gen_blame_case =
  QCheck2.Gen.(
    let* preset = oneofl Workload.Scenario.names in
    let* spec = oneofl [ `Rm; `Edf; `Csd 2 ] in
    let* enforce = oneofl [ `None; `Notify; `Kill ] in
    let* input_seed = int_range 0 1000 in
    return (preset, spec, enforce, input_seed))

let prop_conservation =
  fuzz ~count:40 "conservation across schedulers and enforcement"
    gen_blame_case
    (fun (preset, spec, enforce, input_seed) ->
      let scenario = Option.get (Workload.Scenario.make preset) in
      let spec =
        match spec with
        | `Rm -> Emeralds.Sched.Rm
        | `Edf -> Emeralds.Sched.Edf
        | `Csd n -> Emeralds.Sched.Csd [ n ]
      in
      let enforcement =
        match enforce with
        | `None -> None
        | `Notify ->
          Some
            {
              Emeralds.Kernel.budget_of =
                (fun (t : Model.Task.t) -> Some t.wcet);
              policy = Emeralds.Kernel.Notify_only;
              miss = Emeralds.Kernel.Miss_record;
              shed_one_in = None;
            }
        | `Kill ->
          Some
            {
              Emeralds.Kernel.budget_of =
                (fun (t : Model.Task.t) -> Some t.wcet);
              policy = Emeralds.Kernel.Kill_job;
              miss = Emeralds.Kernel.Miss_record;
              shed_one_in = None;
            }
      in
      let b, _ =
        run_with_blame ~spec ?enforcement ~input_seed ~horizon:(ms 150)
          scenario
      in
      Obs.Blame.residual_violations b = 0)

(* RTA's bounds speak only about programs without open-ended
   blocking (waits, receives, sends, delays). *)
let rta_eligible (sc : Workload.Scenario.t) =
  Array.map
    (fun (t : Model.Task.t) ->
      let ok = ref true in
      Emeralds.Program.iter_leaves
        (fun instr ->
          match instr with
          | Emeralds.Types.Wait _ | Emeralds.Types.Timed_wait _
          | Emeralds.Types.Recv _ | Emeralds.Types.Send _
          | Emeralds.Types.Delay _ ->
            ok := false
          | _ -> ())
        (sc.programs t);
      !ok)
    (Model.Taskset.tasks sc.taskset)

(* The analytical terms each empirical blame component is held to —
   absint demand for execution, the RTA decomposition (plus one
   carry-in job) per interference rank, the lint blocking term, and
   the Table-1 overhead budget at the RTA fixpoint — derived here from
   the analysis libraries directly, as the independent reference for
   [Campaign.Eval]'s own derivation.  [terms i s] lists
   [(term, observed, bound)] for rank [i]: exec when absint's bound is
   finite, interference and overhead when the fixpoint exists,
   blocking always. *)
type reference = {
  eligible : bool array;
  rta : Model.Time.t option array;
  terms :
    int -> Obs.Blame.task_summary -> (Campaign.Eval.term * int * int) list;
}

let reference_terms (scenario : Workload.Scenario.t) =
  let tasks = Model.Taskset.tasks scenario.taskset in
  let ctx =
    Lint.Ctx.make ~irq_signals:scenario.irq_signals
      ~irq_writes:scenario.irq_writes ~taskset:scenario.taskset
      ~programs:scenario.programs ()
  in
  let blocking = Lint.Blocking_terms.blocking_terms ctx in
  let rows =
    Analysis.Overhead.inflate ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
      scenario.taskset
  in
  let rta =
    Array.init (Array.length tasks) (fun i ->
        Analysis.Rta.response_time ~blocking ~tasks:rows i)
  in
  let rep = Absint.Report.analyze scenario in
  let terms i (s : Obs.Blame.task_summary) =
    let exec =
      match
        Array.find_opt
          (fun (tb : Absint.Report.task_bound) -> tb.task.id = tasks.(i).id)
          rep.tasks
      with
      | Some tb -> (
        match Absint.Itv.hi_int tb.summary.exec with
        | Some hi -> [ (Campaign.Eval.Exec, s.s_max_exec, hi) ]
        | None -> [])
      | None -> []
    in
    let interference =
      match Analysis.Rta.decompose ~blocking ~tasks:rows i with
      | Some dec ->
        List.map
          (fun (j, v) ->
            let _, _, cj = rows.(j) in
            ( Campaign.Eval.Interference j,
              v,
              dec.Analysis.Rta.dec_interference.(j) + cj ))
          s.s_max_interference
      | None -> []
    in
    let overhead =
      match rta.(i) with
      | Some rstar ->
        [
          ( Campaign.Eval.Overhead,
            s.s_max_overhead_total,
            Analysis.Overhead.job_budget ~cost:Sim.Cost.m68040
              ~spec:Emeralds.Sched.Rm ~taskset:scenario.taskset
              ~programs:(Array.map scenario.programs tasks)
              ~rank:i ~response:rstar ~irqs:s.s_max_irqs );
        ]
      | None -> []
    in
    exec @ interference
    @ [ (Campaign.Eval.Blocking, s.s_max_blocking_total, blocking.(i)) ]
    @ overhead
  in
  { eligible = rta_eligible scenario; rta; terms }

let gen_domination_case =
  QCheck2.Gen.(
    let* preset = oneofl Workload.Scenario.names in
    let* input_seed = int_range 0 1000 in
    return (preset, input_seed))

(* Per-term domination: every empirical blame component stays within
   its analytical term.  Mirrors the campaign's blame oracle as a
   direct property over presets and input seeds. *)
let prop_domination =
  fuzz ~count:25 "every component dominated by its analytical term"
    gen_domination_case
    (fun (preset, input_seed) ->
      let scenario = Option.get (Workload.Scenario.make preset) in
      let r = reference_terms scenario in
      let b, _ = run_with_blame ~input_seed ~horizon:(ms 150) scenario in
      Array.for_all Fun.id
        (Array.mapi
           (fun i (t : Model.Task.t) ->
             match (Obs.Blame.summary b ~tid:t.id, r.rta.(i)) with
             | Some s, Some _ when r.eligible.(i) && s.s_jobs > 0 ->
               List.for_all (fun (_, v, bound) -> v <= bound) (r.terms i s)
             | _ -> true)
           (Model.Taskset.tasks scenario.taskset)))

(* The campaign's (and explain's) single derivation of the terms
   agrees with the reference above: same eligibility, same fixpoints,
   and for every task's summary exactly the same terms, observations
   and bounds in the same order. *)
let prop_eval_terms =
  fuzz ~count:25 "Eval.blame_terms equal the reference derivation"
    gen_domination_case
    (fun (preset, input_seed) ->
      let scenario = Option.get (Workload.Scenario.make preset) in
      let r = reference_terms scenario in
      let st = Campaign.Eval.statics scenario in
      let b, _ = run_with_blame ~input_seed ~horizon:(ms 150) scenario in
      st.eligible = r.eligible && st.rta = r.rta
      && Array.for_all Fun.id
           (Array.mapi
              (fun i (t : Model.Task.t) ->
                match Obs.Blame.summary b ~tid:t.id with
                | Some s -> Campaign.Eval.blame_terms st ~rank:i s = r.terms i s
                | None -> true)
              (Model.Taskset.tasks scenario.taskset)))

(* Seeded priority inversion: the worst job of the high-priority task
   must blame the contended semaphore, and blocking must dominate. *)
let test_inversion_blames_sem () =
  let scenario = Workload.Scenario.inversion_demo () in
  let b, k = run_with_blame ~horizon:(ms 60) scenario in
  check bool "the demo actually misses" true
    (Sim.Trace.deadline_misses (Emeralds.Kernel.trace k) > 0);
  check int "conservation" 0 (Obs.Blame.residual_violations b);
  let victim =
    List.find
      (fun (s : Obs.Blame.task_summary) -> s.s_rank = 0)
      (Obs.Blame.summaries b)
  in
  let w = Option.get victim.s_worst in
  check bool "blocking attributed to a real semaphore" true
    (List.exists (fun (sem, v) -> sem >= 0 && v > 0) w.b_blocking);
  match Obs.Blame.dominant w with
  | Obs.Blame.Blocking sem, _ -> check bool "dominant sem is real" true (sem >= 0)
  | c, _ ->
    failf "expected Blocking dominant, got %s" (Obs.Blame.cause_label c)

(* The allocation-free attributor against the test-local reference
   ([Blame_ref], the direct implementation): the same summaries, with
   or without an [on_complete] callback, and the same breakdown of
   every closed job, on every preset under RM and under EDF with kill
   enforcement, and on 30 generated scenarios run as the campaign runs
   them (IRQ arrivals, declared notify-only budgets). *)
let test_matches_reference () =
  let closed = ref 0 in
  let compare_run label (sc : Workload.Scenario.t) run =
    let tasks = Obs.Blame.of_taskset sc.taskset in
    let r = Blame_ref.create ~tasks () in
    let a = Obs.Blame.create ~tasks () and b = Obs.Blame.create ~tasks () in
    let r_done = ref [] and a_done = ref [] in
    Blame_ref.on_complete r (fun x -> r_done := x :: !r_done);
    Obs.Blame.on_complete a (fun x -> a_done := x :: !a_done);
    run (fun k ->
        let p = Emeralds.Kernel.probe k in
        Blame_ref.attach r p;
        Obs.Blame.attach a p;
        Obs.Blame.attach b p);
    closed := !closed + List.length !r_done;
    check bool (label ^ ": breakdowns") true (!r_done = !a_done);
    check bool (label ^ ": summaries") true
      (Blame_ref.summaries r = Obs.Blame.summaries a);
    check bool (label ^ ": summaries without callbacks") true
      (Blame_ref.summaries r = Obs.Blame.summaries b)
  in
  let kill =
    {
      Emeralds.Kernel.budget_of = (fun (t : Model.Task.t) -> Some t.wcet);
      policy = Emeralds.Kernel.Kill_job;
      miss = Emeralds.Kernel.Miss_record;
      shed_one_in = None;
    }
  in
  let presets =
    List.map
      (fun n -> Option.get (Workload.Scenario.make n))
      Workload.Scenario.names
    @ Workload.Scenario.
        [
          inversion_demo (); overrun_demo (); alloc_demo (); leak_demo ();
          storm_demo ();
        ]
  in
  List.iter
    (fun (sc : Workload.Scenario.t) ->
      List.iter
        (fun (spec, enforcement, tag) ->
          compare_run (sc.name ^ tag) sc (fun attach ->
              let k =
                Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec
                  ~taskset:sc.taskset ~programs:sc.programs ~input_seed:5 ()
              in
              Emeralds.Kernel.set_enforcement k enforcement;
              attach k;
              Emeralds.Kernel.run k ~until:(ms 150)))
        [
          (Emeralds.Sched.Rm, None, "");
          (Emeralds.Sched.Edf, Some kill, " edf/kill");
        ])
    presets;
  List.iter
    (fun spec ->
      let sc = Workload.Generator.realize spec in
      let horizon =
        Array.fold_left
          (fun h (t : Model.Task.t) -> max h (2 * t.period))
          0 (Model.Taskset.tasks sc.taskset)
      in
      let cfg =
        Fault.Inject.default_config ~scenario:sc
          ~horizon:(min horizon (ms 1000)) ~seed:9
          ~enforcement:
            {
              Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
              policy = Emeralds.Kernel.Notify_only;
              miss = Emeralds.Kernel.Miss_record;
              shed_one_in = None;
            }
          ()
      in
      compare_run sc.name sc (fun attach ->
          ignore (Fault.Inject.run { cfg with observer = Some attach })))
    (Workload.Generator.scenario_specs ~seed:42 ~count:30 ());
  check bool "thousands of jobs compared" true (!closed > 1000)

(* The same comparison on arbitrary event streams, which reach states
   the kernel seldom produces: idle gaps, nested holds of one
   semaphore, inversions behind a runner holding several, kills and
   events of unknown tasks. *)
let gen_stream =
  QCheck2.Gen.(
    let tid = int_range 1 4 (* 4 is not a task *) and sem = int_range 1 2 in
    let entry =
      oneof
        [
          map3
            (fun tid job deadline ->
              Sim.Trace.Job_release { tid; job; deadline })
            tid (int_range 1 9) (int_range 0 400);
          map2
            (fun tid response ->
              Sim.Trace.Job_complete { tid; job = 1; response })
            tid (int_range 0 300);
          map (fun tid -> Sim.Trace.Job_killed { tid; job = 1 }) tid;
          map2
            (fun from_tid to_tid ->
              Sim.Trace.Context_switch { from_tid; to_tid })
            (opt tid) (opt tid);
          map2
            (fun tid reason -> Sim.Trace.Thread_block { tid; reason })
            tid (oneofl [ "sem"; "approach"; "dormant"; "killed"; "delay" ]);
          map (fun tid -> Sim.Trace.Thread_unblock { tid }) tid;
          map2 (fun tid sem -> Sim.Trace.Approach_parked { tid; sem }) tid sem;
          map2 (fun tid sem -> Sim.Trace.Sem_blocked { tid; sem }) tid sem;
          map2 (fun tid sem -> Sim.Trace.Sem_acquired { tid; sem }) tid sem;
          map2 (fun tid sem -> Sim.Trace.Sem_released { tid; sem }) tid sem;
          map2
            (fun holder from_tid ->
              Sim.Trace.Priority_inherit { holder; from_tid })
            tid tid;
          map (fun holder -> Sim.Trace.Priority_restore { holder }) tid;
          map2
            (fun category cost -> Sim.Trace.Overhead { category; cost })
            (oneofl Sim.Trace.ovh_categories) (int_range 0 40);
          return (Sim.Trace.Interrupt { irq = 1 });
        ]
    in
    list_size (int_range 1 300) (pair (int_range 0 30) entry))

let prop_matches_reference_streams =
  fuzz ~count:500 "matches the reference on random event streams" gen_stream
    (fun steps ->
      let tasks = [| (1, 100, 100); (2, 200, 150); (3, 400, 400) |] in
      let r = Blame_ref.create ~tasks () and a = Obs.Blame.create ~tasks () in
      let r_done = ref [] and a_done = ref [] in
      Blame_ref.on_complete r (fun x -> r_done := x :: !r_done);
      Obs.Blame.on_complete a (fun x -> a_done := x :: !a_done);
      let at = ref 0 in
      List.iter
        (fun (dt, entry) ->
          at := !at + dt;
          let st = { Sim.Trace.at = !at; entry } in
          Blame_ref.observe r st;
          Obs.Blame.observe a st)
        steps;
      !r_done = !a_done && Blame_ref.summaries r = Obs.Blame.summaries a)

let suite =
  [
    test_case "conservation on every preset" `Quick test_conservation_presets;
    test_case "attachment is trace-invisible" `Quick test_attach_invisible;
    prop_conservation;
    prop_domination;
    test_case "inversion demo blames the semaphore" `Quick
      test_inversion_blames_sem;
    prop_eval_terms;
    test_case "matches the reference attributor" `Quick test_matches_reference;
    prop_matches_reference_streams;
  ]
