(* Command-line front end: regenerate the paper's tables and figures,
   analyze workloads off-line, and run kernel simulations. *)

open Cmdliner
open Cli_common

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiments =
  [
    ("table1", fun ~seed:_ ~workloads:_ -> Experiments.Exp_table1.run ());
    ("figure2", fun ~seed:_ ~workloads:_ -> Experiments.Exp_figure2.run ());
    ( "figures3to5",
      fun ~seed ~workloads -> Experiments.Exp_figures3_5.run ~seed ~workloads () );
    ("table3", fun ~seed:_ ~workloads:_ -> Experiments.Exp_table3.run ());
    ("semaphores", fun ~seed:_ ~workloads:_ -> Experiments.Exp_sem.run ());
    ("ipc", fun ~seed:_ ~workloads:_ -> Experiments.Exp_ipc.run ());
    ("cyclic", fun ~seed:_ ~workloads:_ -> Experiments.Exp_cyclic.run ());
    ("ablation", fun ~seed:_ ~workloads:_ -> Experiments.Exp_ablation.run ());
    ("interrupt", fun ~seed:_ ~workloads:_ -> Experiments.Exp_interrupt.run ());
  ]

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Experiment: table1, figure2, figures3to5, table3, semaphores, \
             ipc, cyclic, ablation, interrupt, or all.")
  in
  let workloads =
    Arg.(
      value & opt int 40
      & info [ "workloads" ]
          ~doc:"Random workloads per data point (paper: 500).")
  in
  let run name seed workloads =
    let run_one (key, f) =
      print_endline ("==== " ^ key ^ " ====");
      print_endline (f ~seed ~workloads)
    in
    match name with
    | "all" -> List.iter run_one experiments
    | key -> (
      match List.assoc_opt key experiments with
      | Some f -> print_endline (f ~seed ~workloads)
      | None -> bad_invocation "unknown experiment: %s" key)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(const run $ name_arg $ seed $ workloads)

(* ------------------------------------------------------------------ *)
(* schedulability (off-line feasibility tables) *)

let schedulability_cmd =
  let run preset random_n file seed =
    let taskset = taskset_of ~preset ~random_n ~file ~seed in
    let cost = Sim.Cost.m68040 in
    Printf.printf "tasks: %d, utilization: %.3f, hyperperiod: %.1fms\n"
      (Model.Taskset.size taskset)
      (Model.Taskset.utilization taskset)
      (Model.Time.to_ms_f (Model.Taskset.hyperperiod taskset));
    let t =
      Util.Tablefmt.create
        ~headers:[ "scheduler"; "feasible (with overheads)"; "breakdown U" ]
    in
    let row name feasible breakdown =
      Util.Tablefmt.add_row t
        [ name; string_of_bool feasible; Printf.sprintf "%.3f" breakdown ]
    in
    List.iter
      (fun spec ->
        row
          (Emeralds.Sched.spec_name spec)
          (Analysis.Feasibility.feasible ~cost ~spec taskset)
          (Analysis.Breakdown.of_spec ~cost ~spec taskset))
      [ Emeralds.Sched.Rm; Emeralds.Sched.Rm_heap; Emeralds.Sched.Edf ];
    List.iter
      (fun queues ->
        let feasible =
          Analysis.Partition.exhaustive_best ~cost ~queues taskset <> None
        in
        row
          (Printf.sprintf "CSD-%d (best partition)" queues)
          feasible
          (Analysis.Breakdown.of_csd ~cost ~queues taskset))
      [ 2; 3; 4 ];
    print_string (Util.Tablefmt.render t);
    match Analysis.Partition.exhaustive_best ~cost ~queues:3 taskset with
    | Some sizes ->
      Printf.printf "CSD-3 off-line allocation: %s (rest FP)\n"
        (String.concat "," (List.map string_of_int sizes))
    | None -> Printf.printf "CSD-3: no feasible allocation\n"
  in
  Cmd.v
    (Cmd.info "schedulability"
       ~doc:"Off-line schedulability and breakdown analysis")
    Term.(const run $ preset $ random_n $ file $ seed)

(* ------------------------------------------------------------------ *)
(* analyze (abstract interpretation) *)

let demo_scenarios =
  [
    ("under-declared-demo", Workload.Scenario.under_declared_wcet);
    ("over-budget-demo", Workload.Scenario.over_budget);
    ("deadlock-demo", Workload.Scenario.seeded_deadlock);
    ("alloc-demo", Workload.Scenario.alloc_demo);
    ("leak-demo", Workload.Scenario.leak_demo);
    ("double-free-demo", Workload.Scenario.double_free_demo);
  ]

let analyze_scenario_names =
  Workload.Scenario.names @ List.map fst demo_scenarios

let analyze_scenario_of name =
  match List.assoc_opt name demo_scenarios with
  | Some mk -> Some (mk ())
  | None -> Workload.Scenario.make name

let analyze_cmd =
  let preset_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Scenario to analyze: table2, engine, avionics, voice, branchy, \
             under-declared-demo, over-budget-demo, deadlock-demo, \
             alloc-demo, leak-demo or double-free-demo (default: the \
             shipped presets).")
  in
  let cost_name =
    Arg.(
      value
      & opt string "m68040"
      & info [ "cost" ] ~docv:"MODEL"
          ~doc:
            "Cost model charged for kernel calls: m68040 (the paper's \
             target) or zero (pure program time).")
  in
  let budget_bytes =
    Arg.(
      value
      & opt int (snd Emeralds.Footprint.envelope)
      & info [ "budget-bytes" ] ~docv:"N"
          ~doc:
            "Memory budget the derived footprint must fit (default: the \
             paper's 128 KB device ceiling).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as JSON.")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: sarif (SARIF 2.1.0, one log for all \
                scenarios).")
  in
  let rta =
    Arg.(
      value & flag
      & info [ "rta" ]
          ~doc:
            "Also print response-time analysis fed with the derived \
             per-job demand and the absint blocking terms (instead of \
             declared WCETs and lint terms).")
  in
  let run preset_name cost_name budget_bytes json format rta =
    (match format with
    | None | Some "sarif" -> ()
    | Some f -> bad_invocation "unknown format %S (expected: sarif)" f);
    let cost =
      match String.lowercase_ascii cost_name with
      | "m68040" -> Sim.Cost.m68040
      | "zero" -> Sim.Cost.zero
      | s -> bad_invocation "unknown cost model %S (expected: m68040, zero)" s
    in
    let scenarios =
      match preset_name with
      | None -> Workload.Scenario.all ()
      | Some n -> (
        match analyze_scenario_of n with
        | Some s -> [ s ]
        | None ->
          bad_invocation "unknown scenario %S (expected: %s)" n
            (String.concat ", " analyze_scenario_names))
    in
    let had_errors = ref false in
    let sarif_results = ref [] in
    List.iter
      (fun (s : Workload.Scenario.t) ->
        let r = Absint.Report.analyze ~cost ~budget_bytes s in
        if Absint.Report.errors r > 0 then had_errors := true;
        if format = Some "sarif" then
          sarif_results :=
            !sarif_results
            @ List.map
                (fun (sr : Lint.Sarif.result) ->
                  {
                    sr with
                    Lint.Sarif.logical =
                      Some
                        (s.name
                        ^ match sr.logical with None -> "" | Some l -> ", " ^ l
                        );
                  })
                (Lint.Sarif.of_diags r.diags)
        else if json then print_endline (Absint.Report.to_json r)
        else begin
          Printf.printf "==== %s ====\n" s.name;
          print_string (Absint.Report.render r);
          if rta then begin
            let blocking = Absint.Report.blocking_terms r in
            let demand = Absint.Report.derived_demand r in
            let rows =
              Array.mapi
                (fun i tb ->
                  let t = tb.Absint.Report.task in
                  ( t.Model.Task.period,
                    t.Model.Task.deadline,
                    match demand.(i) with
                    | Some d -> d
                    | None -> t.Model.Task.wcet ))
                r.tasks
            in
            Printf.printf
              "\nRTA with derived demand and absint blocking terms:\n";
            Array.iteri
              (fun i tb ->
                let t = tb.Absint.Report.task in
                let higher_unbounded =
                  Array.exists (fun j -> demand.(j) = None)
                    (Array.init (i + 1) Fun.id)
                in
                if higher_unbounded then
                  Printf.printf
                    "  %-8s demand unbounded (untimed wait): no RTA bound\n"
                    t.Model.Task.name
                else
                  match
                    Analysis.Rta.response_time ~blocking ~tasks:rows i
                  with
                  | None ->
                    Printf.printf "  %-8s demand %8.1fus  RTA: unbounded\n"
                      t.Model.Task.name
                      (Model.Time.to_us_f (match demand.(i) with
                                           | Some d -> d
                                           | None -> 0))
                  | Some bound ->
                    Printf.printf
                      "  %-8s demand %8.1fus  B %6.1fus  response %8.1fus  \
                       deadline %8.1fus  %s\n"
                      t.Model.Task.name
                      (Model.Time.to_us_f (match demand.(i) with
                                           | Some d -> d
                                           | None -> 0))
                      (Model.Time.to_us_f blocking.(i))
                      (Model.Time.to_us_f bound)
                      (Model.Time.to_us_f t.Model.Task.deadline)
                      (if bound <= t.Model.Task.deadline then "ok"
                       else "MISSED")
              )
              r.tasks
          end
        end)
      scenarios;
    if format = Some "sarif" then
      print_endline
        (Lint.Sarif.render ~tool_name:"emeralds-absint" !sarif_results);
    if !had_errors then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Abstract interpretation: sound per-task demand intervals, \
          semaphore hold times, interrupt-latency bound, and derived \
          memory footprint with a budget check")
    Term.(
      const run $ preset_name $ cost_name $ budget_bytes $ json $ format
      $ rta)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let sched =
    Arg.(
      value
      & opt sched_conv (Emeralds.Sched.Csd [ 2; 3 ])
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:"Scheduler: edf, rm, rm-heap, csd2, csd3, csd4 or csd:S1,S2.")
  in
  let horizon =
    Arg.(
      value & opt int 1000
      & info [ "horizon-ms" ] ~doc:"Virtual time to simulate (ms).")
  in
  let timeline =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Print the execution trace.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Write the execution trace as CSV.")
  in
  let run preset random_n file seed spec horizon timeline csv =
    let taskset = taskset_of ~preset ~random_n ~file ~seed in
    let k =
      Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec ~taskset ()
    in
    Emeralds.Kernel.run k ~until:(Model.Time.ms horizon);
    let tr = Emeralds.Kernel.trace k in
    if timeline then Format.printf "%a@." Sim.Trace.pp_timeline tr;
    (match csv with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Sim.Trace.to_csv tr));
      Printf.printf "trace written to %s\n" path
    | None -> ());
    Printf.printf "%s over %dms: %d misses, %d switches, overhead %.3fms\n"
      (Emeralds.Sched.spec_name spec)
      horizon
      (Sim.Trace.deadline_misses tr)
      (Sim.Trace.context_switches tr)
      (Model.Time.to_ms_f (Sim.Trace.overhead_total tr));
    List.iter
      (fun (s : Emeralds.Kernel.task_stats) ->
        Printf.printf
          "  tau%-2d jobs %5d  misses %3d  max response %8.2fms  mean %8.2fms\n"
          s.tid s.jobs_completed s.misses
          (Model.Time.to_ms_f s.max_response)
          (Model.Time.to_ms_f s.mean_response))
      (Emeralds.Kernel.stats k)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the kernel simulation on a workload")
    Term.(
      const run $ preset $ random_n $ file $ seed $ sched $ horizon $ timeline
      $ csv)

(* ------------------------------------------------------------------ *)
(* sensitivity *)

let sensitivity_cmd =
  let sched =
    Arg.(
      value
      & opt sched_conv (Emeralds.Sched.Csd [ 2; 3 ])
      & info [ "sched" ] ~docv:"SCHED" ~doc:"Scheduler to analyse under.")
  in
  let run preset random_n file seed spec =
    let taskset = taskset_of ~preset ~random_n ~file ~seed in
    let cost = Sim.Cost.m68040 in
    print_string
      (Analysis.Sensitivity.render
         (Analysis.Sensitivity.per_task ~cost ~spec taskset));
    match Analysis.Sensitivity.bottleneck ~cost ~spec taskset with
    | Some b ->
      Printf.printf "bottleneck: tau%d (headroom %.2fx)\n" b.task_id b.scale
    | None -> ()
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Per-task WCET headroom under a scheduler (with overheads)")
    Term.(const run $ preset $ random_n $ file $ seed $ sched)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let preset_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Scenario to lint: table2, engine, avionics, voice, branchy or one \
             of the demo scenarios (deadlock-demo, leak-demo, \
             double-free-demo, ...); default: the shipped presets.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON.")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: sarif (SARIF 2.1.0, one log for all \
                scenarios).")
  in
  let blocking =
    Arg.(
      value & flag
      & info [ "blocking" ]
          ~doc:
            "Also print the statically extracted per-semaphore priority \
             ceilings, worst-case critical sections, and per-rank \
             blocking terms.")
  in
  let run preset_name json format blocking =
    (match format with
    | None | Some "sarif" -> ()
    | Some f ->
      Printf.eprintf "unknown format %S (expected: sarif)\n" f;
      exit 2);
    let scenarios =
      match preset_name with
      | None -> Workload.Scenario.all ()
      | Some n -> (
        match analyze_scenario_of n with
        | Some s -> [ s ]
        | None ->
          Printf.eprintf "unknown scenario %S (expected: %s)\n" n
            (String.concat ", " analyze_scenario_names);
          exit 2)
    in
    let had_errors = ref false in
    let sarif_results = ref [] in
    List.iter
      (fun (s : Workload.Scenario.t) ->
        let ctx =
          Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
            ~taskset:s.taskset ~programs:s.programs ()
        in
        let diags = Lint.Report.run ctx in
        if Lint.Diag.errors diags > 0 then had_errors := true;
        if format = Some "sarif" then
          sarif_results :=
            !sarif_results
            @ List.map
                (fun (r : Lint.Sarif.result) ->
                  {
                    r with
                    Lint.Sarif.logical =
                      Some
                        (s.name
                        ^ match r.logical with None -> "" | Some l -> ", " ^ l
                        );
                  })
                (Lint.Sarif.of_diags diags)
        else if json then
          Printf.printf "{\"scenario\":%S,\"findings\":%s}\n" s.name
            (Lint.Report.to_json diags)
        else begin
          Printf.printf "==== %s ====\n" s.name;
          print_string (Lint.Report.render diags);
          if blocking then print_string (Lint.Report.render_blocking ctx)
        end)
      scenarios;
    if format = Some "sarif" then
      print_endline
        (Lint.Sarif.render ~tool_name:"emeralds-lint" !sarif_results);
    if !had_errors then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify task programs, sync-object usage, and \
          schedulability inputs")
    Term.(const run $ preset_name $ json $ format $ blocking)

(* ------------------------------------------------------------------ *)
(* check (bounded model checker) *)

let check_cmd =
  let preset_name =
    Arg.(
      value
      & opt string "engine"
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Scenario to check: table2, engine, avionics, voice, branchy, or \
             deadlock-demo (the intentionally buggy lock-order cycle).")
  in
  let sched =
    Arg.(
      value
      & opt string "fp"
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:
            "Model scheduler: fp (fixed priority, RM order) or edf. The \
             checker explores every admissible tie-break either way.")
  in
  let horizon_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon-ms" ]
          ~doc:"Virtual-time bound (default: one hyperperiod).")
  in
  let max_states =
    Arg.(
      value & opt int 200_000
      & info [ "max-states" ] ~doc:"Expansion budget.")
  in
  let max_depth =
    Arg.(
      value & opt int 10_000
      & info [ "max-depth" ] ~doc:"Decision-depth budget per path.")
  in
  let props_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "props" ] ~docv:"P1,P2"
          ~doc:
            (Printf.sprintf "Properties to check (default: all). Known: %s."
               (String.concat ", " Mc.Props.names)))
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ] ~doc:"Disable partial-order reduction.")
  in
  let read_span_us =
    Arg.(
      value & opt int 0
      & info [ "read-span-us" ]
          ~doc:
            "Model state-message reads as taking this long (0 = atomic); \
             non-zero spans expose torn reads to the tear property.")
  in
  let sporadic =
    Arg.(
      value
      & opt_all string []
      & info [ "sporadic" ] ~docv:"TID:MIN_MS:MAX_MS"
          ~doc:
            "Re-model a task as sporadic with the given inter-arrival \
             window; the checker forks over earliest arrival, latest \
             arrival and silence. Repeatable.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: sarif.")
  in
  let rta =
    Arg.(
      value & flag
      & info [ "rta" ]
          ~doc:
            "Cross-check: print observed worst-case responses next to the \
             RTA bounds fed with the lint-extracted blocking terms.")
  in
  let search_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Shuffle the exploration order of each branch's children \
             (reproducibly). The verdict is order-independent; the search \
             path and the reported counterexample are not.")
  in
  let run preset_name sched horizon_ms max_states max_depth props_arg no_por
      read_span_us sporadic json format rta search_seed =
    (match format with
    | None | Some "sarif" -> ()
    | Some f ->
      Printf.eprintf "unknown format %S (expected: sarif)\n" f;
      exit 2);
    let scenario =
      if preset_name = "deadlock-demo" then Workload.Scenario.seeded_deadlock ()
      else
        match Workload.Scenario.make preset_name with
        | Some s -> s
        | None ->
          Printf.eprintf "unknown scenario %S (expected: %s, deadlock-demo)\n"
            preset_name
            (String.concat ", " Workload.Scenario.names);
          exit 2
    in
    let sched =
      match String.lowercase_ascii sched with
      | "fp" | "rm" -> Mc.Machine.Fp
      | "edf" -> Mc.Machine.Edf
      | s ->
        Printf.eprintf "unknown scheduler %S (expected: fp, edf)\n" s;
        exit 2
    in
    let sporadic =
      List.map
        (fun spec ->
          match String.split_on_char ':' spec with
          | [ tid; lo; hi ] -> (
            try
              ( int_of_string tid,
                Model.Time.ms (int_of_string lo),
                Model.Time.ms (int_of_string hi) )
            with _ ->
              Printf.eprintf "bad --sporadic %S\n" spec;
              exit 2)
          | _ ->
            Printf.eprintf "bad --sporadic %S (expected TID:MIN_MS:MAX_MS)\n"
              spec;
            exit 2)
        sporadic
    in
    let props =
      match props_arg with
      | None -> Mc.Props.all
      | Some spec ->
        List.map
          (fun name ->
            match Mc.Props.by_name (String.trim name) with
            | Some p -> p
            | None ->
              Printf.eprintf "unknown property %S (known: %s)\n" name
                (String.concat ", " Mc.Props.names);
              exit 2)
          (String.split_on_char ',' spec)
    in
    let m =
      Mc.Machine.of_scenario ~sched ~read_span:(Model.Time.us read_span_us)
        ~sporadic scenario
    in
    let bounds =
      {
        Mc.Explorer.horizon =
          (match horizon_ms with
          | Some h -> Model.Time.ms h
          | None -> m.hyperperiod);
        max_states;
        max_depth;
      }
    in
    let r =
      Mc.Explorer.check ~por:(not no_por) ?seed:search_seed ~props ~bounds m
    in
    let ok = r.verdict = `Ok in
    if format = Some "sarif" then begin
      let results =
        match r.verdict with
        | `Ok -> []
        | `Violation (cex : Mc.Counterexample.t) ->
          [
            {
              Lint.Sarif.rule_id = "mc-" ^ cex.prop;
              level = Lint.Sarif.Error;
              message =
                Printf.sprintf "%s (at %.3fms, %d choices deep)" cex.message
                  (Model.Time.to_ms_f cex.at)
                  (List.length cex.choices);
              logical = Some scenario.name;
            };
          ]
      in
      print_endline (Lint.Sarif.render ~tool_name:"emeralds-mc" results)
    end
    else if json then begin
      let verdict_fields =
        match r.verdict with
        | `Ok -> {|"verdict":"ok"|}
        | `Violation cex ->
          Printf.sprintf
            {|"verdict":"violation","prop":%S,"message":%S,"at_ns":%d,"choices":%d|}
            cex.prop cex.message cex.at
            (List.length cex.choices)
      in
      let responses =
        String.concat ","
          (List.map
             (fun (t : Mc.Machine.mtask) ->
               Printf.sprintf {|%S:%d|} t.task_name r.max_response.(t.idx))
             (Array.to_list m.tasks))
      in
      Printf.printf
        {|{"scenario":%S,%s,"expansions":%d,"distinct":%d,"revisits":%d,"por_skipped":%d,"truncated":%b,"jobs":%d,"max_response_ns":{%s}}|}
        scenario.name verdict_fields r.expansions r.distinct r.revisits
        r.por_skipped r.truncated r.jobs responses;
      print_newline ()
    end
    else begin
      Printf.printf
        "%s: %d tasks, horizon %.1fms, properties: %s%s\n"
        scenario.name (Mc.Machine.n_tasks m)
        (Model.Time.to_ms_f bounds.horizon)
        (String.concat ", " (List.map (fun (p : Mc.Props.t) -> p.name) props))
        (if no_por then " (POR off)" else "");
      Printf.printf
        "explored %d segments, %d distinct decision states, %d revisits \
         pruned, %d tie choices merged, %d jobs%s\n"
        r.expansions r.distinct r.revisits r.por_skipped r.jobs
        (if r.truncated then " [TRUNCATED: bounds hit]" else "");
      (match r.verdict with
      | `Ok ->
        Printf.printf "no violation within bounds%s\n"
          (if r.truncated then " (exploration incomplete)" else "")
      | `Violation cex -> print_string (Mc.Counterexample.render m ~props cex));
      if rta then begin
        let ctx =
          Lint.Ctx.make ~irq_signals:scenario.irq_signals
            ~irq_writes:scenario.irq_writes ~taskset:scenario.taskset
            ~programs:scenario.programs ()
        in
        let blocking = Lint.Blocking_terms.blocking_terms ctx in
        let rows =
          Array.map
            (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
            (Model.Taskset.tasks scenario.taskset)
        in
        Printf.printf "\nRTA cross-check (blocking terms from lint):\n";
        Array.iteri
          (fun i (t : Mc.Machine.mtask) ->
            match Analysis.Rta.response_time ~blocking ~tasks:rows i with
            | None ->
              Printf.printf "  %-8s observed %8.3fms  RTA: unbounded\n"
                t.task_name
                (Model.Time.to_ms_f r.max_response.(i))
            | Some bound ->
              Printf.printf "  %-8s observed %8.3fms  RTA bound %8.3fms  %s\n"
                t.task_name
                (Model.Time.to_ms_f r.max_response.(i))
                (Model.Time.to_ms_f bound)
                (if r.max_response.(i) <= bound then "ok" else "EXCEEDED"))
          m.tasks
      end
    end;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively explore kernel interleavings within bounds: deadlock \
          freedom, priority-inheritance correctness, invariants, torn \
          reads, deadline safety — with replayable counterexamples")
    Term.(
      const run $ preset_name $ sched $ horizon_ms $ max_states $ max_depth
      $ props_arg $ no_por $ read_span_us $ sporadic $ json $ format $ rta
      $ search_seed)

(* ------------------------------------------------------------------ *)
(* inject (fault injection + enforcement report) *)

let inject_cmd =
  let preset_name =
    Arg.(
      value
      & opt string "overrun-demo"
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Scenario to inject into: table2, engine, avionics, voice (clean \
             presets, empty default plan), overrun-demo (WCET-overrun \
             seeded-fault demo), storm-demo (IRQ storm / lost signal / \
             sporadic burst demo), alloc-demo (disciplined block-pool use) \
             or leak-demo (per-job block leak).")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Fault plan (replaces the preset's default plan), e.g. \
             'wcet-scale:tid=2,pct=400;jitter:tid=1,amp=500us'. See \
             lib/fault/plan.mli for the full syntax.")
  in
  let policy =
    Arg.(
      value
      & opt string "notify"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Budget-overrun policy: notify, kill, skip-next, or demote:N \
             (lower the job's priority by N ranks).")
  in
  let miss_policy =
    Arg.(
      value
      & opt string "record"
      & info [ "miss-policy" ] ~docv:"POLICY"
          ~doc:"Deadline-miss policy: record, kill, or shed-next.")
  in
  let shed_one_in =
    Arg.(
      value
      & opt (some int) None
      & info [ "shed-one-in" ] ~docv:"K"
          ~doc:
            "Skip-over overload shedding: a release that finds the previous \
             job still active may be dropped, at most one in every K \
             releases of that task.")
  in
  let mem_policy =
    Arg.(
      value
      & opt string "off"
      & info [ "mem-policy" ] ~docv:"POLICY"
          ~doc:
            "Live-block quota policy: off (no memory enforcement), notify, \
             kill, skip-next, or demote:N. Quotas are the static analyzer's \
             per-task peak-live bounds; tasks that never allocate stay \
             unenforced.")
  in
  let sched =
    Arg.(
      value
      & opt sched_conv Emeralds.Sched.Rm
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:"Scheduler: edf, rm, rm-heap, csd2/csd3/csd4 or csd:S1,S2,...")
  in
  let horizon_ms =
    Arg.(
      value & opt int 200
      & info [ "horizon-ms" ] ~doc:"Simulation horizon in milliseconds.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: sarif.")
  in
  let flightrec_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "flightrec" ] ~docv:"PATH"
          ~doc:
            "Arm a flight recorder on every injection run and write the \
             dump of the first one that triggers (deadline miss, budget \
             overrun or job kill) as Perfetto trace-event JSON — the last \
             ring-buffer events, ending at the triggering entry.")
  in
  let ring_bytes =
    Arg.(
      value
      & opt int 32_768
      & info [ "ring-bytes" ] ~docv:"N"
          ~doc:"Flight-recorder ring size in modeled bytes (48 per slot).")
  in
  (* The storm demo's default plan must name the wait queue the scenario
     allocated, so it is built against the instance rather than parsed
     from a constant. *)
  let default_plan (scenario : Workload.Scenario.t) = function
    | "overrun-demo" ->
      [ Fault.Plan.Wcet_scale { tid = 2; pct = 400; from_job = 1 } ]
    | "storm-demo" ->
      let wq =
        match scenario.irq_signals with
        | wq :: _ -> wq.Emeralds.Types.wq_id
        | [] -> 0
      in
      [
        Fault.Plan.Irq_storm
          {
            irq = 9;
            at = Model.Time.ms 20;
            count = 40;
            spacing = Model.Time.us 100;
          };
        Fault.Plan.Lost_signal { wq; one_in = 3 };
        Fault.Plan.Sporadic_burst
          {
            tid = 3;
            at = Model.Time.ms 50;
            count = 5;
            spacing = Model.Time.us 500;
          };
      ]
    | _ -> []
  in
  let run preset_name plan_arg policy miss_policy shed_one_in mem_policy sched
      horizon_ms seed json format flightrec_path ring_bytes =
    (match format with
    | None | Some "sarif" -> ()
    | Some f -> bad_invocation "unknown format %S (expected: sarif)" f);
    let scenario =
      match preset_name with
      | "overrun-demo" -> Workload.Scenario.overrun_demo ()
      | "storm-demo" -> Workload.Scenario.storm_demo ()
      | "alloc-demo" -> Workload.Scenario.alloc_demo ()
      | "leak-demo" -> Workload.Scenario.leak_demo ()
      | n -> (
        match Workload.Scenario.make n with
        | Some s -> s
        | None ->
          bad_invocation
            "unknown scenario %S (expected: %s, overrun-demo, storm-demo, \
             alloc-demo, leak-demo)" n
            (String.concat ", " Workload.Scenario.names))
    in
    let plan =
      match plan_arg with
      | None -> default_plan scenario preset_name
      | Some spec -> (
        match Fault.Plan.parse spec with
        | Ok p -> p
        | Error e -> bad_invocation "bad --plan: %s" e)
    in
    let parse_policy ~flag s =
      match String.lowercase_ascii s with
      | "notify" -> Emeralds.Kernel.Notify_only
      | "kill" -> Emeralds.Kernel.Kill_job
      | "skip-next" -> Emeralds.Kernel.Skip_next
      | p when String.length p > 7 && String.sub p 0 7 = "demote:" -> (
        match int_of_string_opt (String.sub p 7 (String.length p - 7)) with
        | Some n when n > 0 -> Emeralds.Kernel.Demote n
        | _ -> bad_invocation "bad %s %S (demote:N needs N >= 1)" flag s)
      | _ ->
        bad_invocation
          "unknown %s %S (expected: notify, kill, skip-next, demote:N)" flag s
    in
    let policy = parse_policy ~flag:"--policy" policy in
    let mem_enforcement =
      match String.lowercase_ascii mem_policy with
      | "off" -> None
      | s ->
        Some
          {
            Emeralds.Kernel.quota_of = Fault.Inject.declared_quotas scenario;
            on_exceed = parse_policy ~flag:"--mem-policy" s;
          }
    in
    let miss =
      match String.lowercase_ascii miss_policy with
      | "record" -> Emeralds.Kernel.Miss_record
      | "kill" -> Emeralds.Kernel.Miss_kill
      | "shed-next" -> Emeralds.Kernel.Miss_shed_next
      | _ ->
        bad_invocation
          "unknown --miss-policy %S (expected: record, kill, shed-next)"
          miss_policy
    in
    (match shed_one_in with
    | Some k when k <= 0 -> bad_invocation "--shed-one-in must be positive"
    | _ -> ());
    (* One fresh recorder per kernel the report builds (baseline + one
       per plan cell); the dump comes from the first that triggered. *)
    let recorders = ref [] in
    let observer =
      match flightrec_path with
      | None -> None
      | Some _ ->
        let bytes = validated_ring_bytes ring_bytes in
        Some
          (fun k ->
            let fr =
              Obs.Flightrec.create ~bytes
                ~triggers:
                  [
                    Obs.Flightrec.On_miss; On_overrun; On_kill; On_oom;
                    On_quota; On_net_timeout;
                  ]
                ()
            in
            recorders := !recorders @ [ fr ];
            Obs.Flightrec.attach fr (Emeralds.Kernel.probe k))
    in
    let cfg =
      {
        Fault.Inject.scenario;
        spec = sched;
        cost = Sim.Cost.m68040;
        horizon = Model.Time.ms horizon_ms;
        seed;
        tick = None;
        enforcement =
          Some
            {
              Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
              policy;
              miss;
              shed_one_in;
            };
        mem_enforcement;
        plan;
        observer;
      }
    in
    let report = Fault.Report.run cfg in
    if format = Some "sarif" then
      print_endline
        (Lint.Sarif.render ~tool_name:"emeralds-inject"
           (Fault.Report.to_sarif report))
    else if json then print_endline (Fault.Report.to_json report)
    else print_string (Fault.Report.render report);
    (match flightrec_path with
    | None -> ()
    | Some path ->
      let fr =
        match
          List.find_opt (fun fr -> Obs.Flightrec.triggered fr <> None)
            !recorders
        with
        | Some fr -> Some fr
        | None -> (
          (* nothing triggered: fall back to the live window of the
             last (most faulted) run *)
          match List.rev !recorders with fr :: _ -> Some fr | [] -> None)
      in
      (match fr with
      | None -> ()
      | Some fr ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Obs.Export.perfetto (Obs.Flightrec.dump fr)));
        let window = List.length (Obs.Flightrec.dump fr) in
        (match Obs.Flightrec.triggered fr with
        | Some { at; entry } ->
          let kind, _, _ = Sim.Trace.csv_fields entry in
          Printf.printf
            "flight recorder: %d-event window ending at %s (%.3f ms) \
             written to %s\n"
            window kind (Model.Time.to_ms_f at) path
        | None ->
          Printf.printf
            "flight recorder: no trigger fired; %d-event live window \
             written to %s\n"
            window path)));
    if Fault.Report.violations report then exit 1
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Replay a scenario under a fault plan (WCET overruns, release \
          jitter, IRQ storms, lost signals, sporadic bursts, clock drift) \
          with runtime budget enforcement, and report detection latency, \
          shedding, and which static predictions the faults falsified")
    Term.(
      const run $ preset_name $ plan_arg $ policy $ miss_policy $ shed_one_in
      $ mem_policy $ sched $ horizon_ms $ seed $ json $ format
      $ flightrec_path $ ring_bytes)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let preset_name =
    Arg.(
      value
      & opt string "engine"
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Scenario to record: table2, engine, avionics, voice, branchy, \
             alloc-demo, leak-demo or inversion-demo (full scenario replay: \
             programs attached, IRQ sources firing).")
  in
  let sched =
    Arg.(
      value
      & opt sched_conv Emeralds.Sched.Rm
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:"Scheduler: edf, rm, rm-heap, csd2/csd3/csd4 or csd:S1,S2,...")
  in
  let horizon_ms =
    Arg.(
      value & opt int 100
      & info [ "horizon-ms" ] ~doc:"Simulation horizon in milliseconds.")
  in
  let categories =
    Arg.(
      value
      & opt (some string) None
      & info [ "categories" ] ~docv:"LIST"
          ~doc:
            "Comma-separated probe categories the recorder and exporters \
             subscribe to (job, sched, sync, ipc, irq, overhead, enforce, \
             mem, meta); default all.  Filters the observability \
             subscribers only — the kernel's own trace and statistics are \
             unaffected.")
  in
  let ring_bytes =
    Arg.(
      value
      & opt int (fst Emeralds.Footprint.envelope)
      & info [ "ring-bytes" ] ~docv:"N"
          ~doc:
            "Flight-recorder ring size in modeled bytes (48 per event \
             slot); bounded by the paper's 128 KB memory envelope.")
  in
  let format =
    Arg.(
      value
      & opt string "perfetto"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output: perfetto (Chrome/Perfetto trace-event JSON of the \
             flight-recorder window), csv (same window as CSV), metrics \
             (Prometheus text exposition of the streaming metrics) or \
             json (metrics digest).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the output to a file instead of stdout.")
  in
  let run preset_name sched horizon_ms seed categories ring_bytes format out =
    (match format with
    | "perfetto" | "csv" | "metrics" | "json" -> ()
    | f ->
      bad_invocation "unknown format %S (expected: perfetto, csv, metrics, json)" f);
    let scenario =
      match Workload.Scenario.make preset_name with
      | Some s -> s
      | None -> (
        match preset_name with
        | "alloc-demo" -> Workload.Scenario.alloc_demo ()
        | "leak-demo" -> Workload.Scenario.leak_demo ()
        | "inversion-demo" -> Workload.Scenario.inversion_demo ()
        | _ ->
          bad_invocation "unknown scenario %S (expected: %s, alloc-demo, \
                          leak-demo, inversion-demo)" preset_name
            (String.concat ", " Workload.Scenario.names))
    in
    let mask = category_mask_of_names categories in
    let ring_bytes = validated_ring_bytes ring_bytes in
    let metrics = Obs.Metrics.create () in
    let flightrec =
      Obs.Flightrec.create ~bytes:ring_bytes
        ~triggers:
          [
            Obs.Flightrec.On_miss; On_overrun; On_kill; On_oom; On_quota;
            On_net_timeout;
          ]
        ()
    in
    let observer k =
      let probe = Emeralds.Kernel.probe k in
      Obs.Probe.subscribe probe ~mask (Obs.Metrics.observe metrics);
      Obs.Probe.subscribe probe ~mask (Obs.Flightrec.record flightrec)
    in
    let cfg =
      {
        (Fault.Inject.default_config ~scenario ~spec:sched
           ~horizon:(Model.Time.ms horizon_ms) ~seed ())
        with
        observer = Some observer;
      }
    in
    let outcome = Fault.Inject.run cfg in
    let window = Obs.Flightrec.dump flightrec in
    let output =
      match format with
      | "perfetto" ->
        Obs.Export.perfetto
          ~blame:(Obs.Blame.of_taskset scenario.taskset)
          window
      | "csv" ->
        let buf = Buffer.create 1024 in
        Buffer.add_string buf "time_ns,kind,tid,detail\n";
        List.iter
          (fun ({ at; entry } : Sim.Trace.stamped) ->
            let kind, tid, detail = Sim.Trace.csv_fields entry in
            Buffer.add_string buf
              (Printf.sprintf "%d,%s,%d,%s\n" at kind tid detail))
          window;
        Buffer.contents buf
      | "metrics" -> Obs.Export.prometheus metrics
      | "json" -> Obs.Export.metrics_json metrics
      | _ -> assert false
    in
    (match out with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc output);
      Printf.printf "%s output written to %s\n" format path
    | None -> print_string output);
    let tr = Emeralds.Kernel.trace outcome.kernel in
    (match Obs.Flightrec.triggered flightrec with
    | Some { at; entry } ->
      Printf.eprintf
        "flight recorder froze at %.3f ms (%s); window holds the last %d of \
         %d events\n"
        (Model.Time.to_ms_f at)
        (let kind, _, _ = Sim.Trace.csv_fields entry in
         kind)
        (List.length window)
        (Obs.Flightrec.total_recorded flightrec)
    | None -> ());
    if
      Sim.Trace.deadline_misses tr > 0
      || Sim.Trace.budget_overruns tr > 0
      || Sim.Trace.jobs_killed tr > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a scenario through the observability layer: streaming \
          metrics (Prometheus / JSON) and a bounded flight-recorder window \
          (Perfetto / CSV) that freezes at the first deadline miss, budget \
          overrun or job kill")
    Term.(
      const run $ preset_name $ sched $ horizon_ms $ seed $ categories
      $ ring_bytes $ format $ out)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  let preset_name =
    Arg.(
      value
      & opt string "branchy"
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Scenario to explain: table2, engine, avionics, voice, branchy, \
             inversion-demo, alloc-demo, leak-demo or overrun-demo.")
  in
  let sched =
    Arg.(
      value
      & opt sched_conv Emeralds.Sched.Rm
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:
            "Scheduler: edf, rm, rm-heap, csd2/csd3/csd4 or csd:S1,S2,...  \
             The analytical bound columns assume RM and are suppressed \
             otherwise.")
  in
  let horizon_ms =
    Arg.(
      value & opt int 100
      & info [ "horizon-ms" ] ~doc:"Simulation horizon in milliseconds.")
  in
  let task_filter =
    Arg.(
      value
      & opt (some int) None
      & info [ "task" ] ~docv:"TID" ~doc:"Explain only this task id.")
  in
  let format =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output: text (ranked blame tables), json (machine digest) or \
             sarif (misses, conservation and domination violations as \
             results).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the output to a file instead of stdout.")
  in
  let run preset_name sched horizon_ms seed task_filter format out =
    (match format with
    | "text" | "json" | "sarif" -> ()
    | f -> bad_invocation "unknown format %S (expected: text, json, sarif)" f);
    let scenario =
      match Workload.Scenario.make preset_name with
      | Some s -> s
      | None -> (
        match preset_name with
        | "inversion-demo" -> Workload.Scenario.inversion_demo ()
        | "alloc-demo" -> Workload.Scenario.alloc_demo ()
        | "leak-demo" -> Workload.Scenario.leak_demo ()
        | "overrun-demo" -> Workload.Scenario.overrun_demo ()
        | _ ->
          bad_invocation
            "unknown scenario %S (expected: %s, inversion-demo, alloc-demo, \
             leak-demo, overrun-demo)"
            preset_name
            (String.concat ", " Workload.Scenario.names))
    in
    let tasks = Model.Taskset.tasks scenario.taskset in
    (match task_filter with
    | Some tid
      when not (Array.exists (fun (t : Model.Task.t) -> t.id = tid) tasks) ->
      bad_invocation "no task %d in scenario %S" tid preset_name
    | _ -> ());
    (* static terms: the campaign's own (all RM-specific); tasks RTA
       does not cover, or any other scheduler, get no bound columns *)
    let statics = Campaign.Eval.statics scenario in
    let bounded i = sched = Emeralds.Sched.Rm && statics.eligible.(i) in
    (* simulation with the attributor on the probe stream *)
    let blame =
      Obs.Blame.create ~tasks:(Obs.Blame.of_taskset scenario.taskset) ()
    in
    let observer k = Obs.Blame.attach blame (Emeralds.Kernel.probe k) in
    let cfg =
      {
        (Fault.Inject.default_config ~scenario ~spec:sched
           ~horizon:(Model.Time.ms horizon_ms) ~seed ())
        with
        observer = Some observer;
      }
    in
    let outcome = Fault.Inject.run cfg in
    let tr = Emeralds.Kernel.trace outcome.kernel in
    let misses = Sim.Trace.deadline_misses tr in
    let overruns = Sim.Trace.budget_overruns tr in
    let kills = Sim.Trace.jobs_killed tr in
    let selected (s : Obs.Blame.task_summary) =
      match task_filter with Some tid -> s.s_id = tid | None -> true
    in
    let summaries = List.filter selected (Obs.Blame.summaries blame) in
    (* the dominant cause of each missing task's worst job — the line
       the exit-1 path prints and SARIF reports *)
    let verdicts =
      List.filter_map
        (fun (s : Obs.Blame.task_summary) ->
          let t =
            Array.to_list tasks
            |> List.find (fun (t : Model.Task.t) -> t.id = s.s_id)
          in
          match s.s_worst with
          | Some bd when s.s_max_response > t.deadline ->
            let cause, amount = Obs.Blame.dominant bd in
            Some (s.s_id, cause, amount)
          | _ -> None)
        summaries
    in
    let output =
      match format with
      | "text" ->
        let buf = Buffer.create 2048 in
        Printf.bprintf buf
          "explain: scenario %s, sched %s, horizon %d ms, seed %d\n"
          preset_name
          (Emeralds.Sched.spec_name sched)
          horizon_ms seed;
        Printf.bprintf buf
          "  %d deadline miss(es), %d overrun(s), %d kill(s), %d \
           conservation violation(s)\n"
          misses overruns kills
          (Obs.Blame.residual_violations blame);
        List.iter
          (fun (s : Obs.Blame.task_summary) ->
            let i = s.s_rank in
            let t =
              Array.to_list tasks
              |> List.find (fun (t : Model.Task.t) -> t.id = s.s_id)
            in
            Printf.bprintf buf
              "\ntau%d (rank %d): %d job(s), max response %dns%s%s\n" s.s_id
              s.s_rank s.s_jobs s.s_max_response
              (match statics.rta.(i) with
              | Some r when bounded i -> Printf.sprintf ", RTA bound %dns" r
              | _ -> "")
              (if s.s_max_response > t.deadline then "  ** MISSED **" else "");
            (match s.s_worst with
            | Some bd ->
              Printf.bprintf buf "%s"
                (Format.asprintf "%a" Obs.Blame.pp_breakdown bd);
              if bounded i then begin
                Printf.bprintf buf "  cross-validation (worst per component \
                                    across jobs vs analytical term):\n";
                List.iter
                  (fun (term, v, b) ->
                    Printf.bprintf buf "  %-22s %10dns <= %10dns  %s\n"
                      (match term with
                      | Campaign.Eval.Exec -> "exec <= absint demand"
                      | Interference j ->
                        Printf.sprintf "interference(rank %d)" j
                      | Blocking -> "blocking <= lint term"
                      | Overhead -> "overhead <= Table-1")
                      v b
                      (if v <= b then "ok" else "EXCEEDS"))
                  (Campaign.Eval.blame_terms statics ~rank:i s)
              end
            | None -> ())
          )
          summaries;
        List.iter
          (fun (tid, cause, amount) ->
            Printf.bprintf buf
              "\ntau%d missed its deadline: dominant blame %s (%dns)\n" tid
              (Obs.Blame.cause_label cause)
              amount)
          verdicts;
        Buffer.contents buf
      | "json" ->
        let buf = Buffer.create 2048 in
        Printf.bprintf buf
          "{\"scenario\":%S,\"sched\":%S,\"horizon_ms\":%d,\"seed\":%d,\n \
           \"misses\":%d,\"overruns\":%d,\"kills\":%d,\
           \"residual_violations\":%d,\n \"tasks\":["
          preset_name
          (Emeralds.Sched.spec_name sched)
          horizon_ms seed misses overruns kills
          (Obs.Blame.residual_violations blame);
        List.iteri
          (fun n (s : Obs.Blame.task_summary) ->
            let i = s.s_rank in
            let t =
              Array.to_list tasks
              |> List.find (fun (t : Model.Task.t) -> t.id = s.s_id)
            in
            if n > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf
              "\n  {\"tid\":%d,\"rank\":%d,\"jobs\":%d,\"max_response\":%d,\
               \"missed\":%b"
              s.s_id s.s_rank s.s_jobs s.s_max_response
              (s.s_max_response > t.deadline);
            (match statics.rta.(i) with
            | Some r when bounded i -> Printf.bprintf buf ",\"rta_bound\":%d" r
            | _ -> ());
            (match s.s_worst with
            | Some bd ->
              let cause, amount = Obs.Blame.dominant bd in
              Printf.bprintf buf
                ",\"worst\":{\"job\":%d,\"response\":%d,\"exec\":%d,\
                 \"backlog\":%d,\"blocking\":%d,\"overhead\":%d,\
                 \"suspend\":%d,\"gap\":%d,\"residual\":%d,\
                 \"interference\":["
                bd.Obs.Blame.b_job bd.Obs.Blame.b_response bd.Obs.Blame.b_exec
                bd.Obs.Blame.b_backlog
                (Obs.Blame.blocking_total bd)
                (Obs.Blame.overhead_total bd)
                bd.Obs.Blame.b_suspend bd.Obs.Blame.b_gap
                bd.Obs.Blame.b_residual;
              List.iteri
                (fun m (j, v) ->
                  if m > 0 then Buffer.add_char buf ',';
                  Printf.bprintf buf "{\"rank\":%d,\"ns\":%d}" j v)
                bd.Obs.Blame.b_interference;
              Printf.bprintf buf
                "],\"dominant\":{\"cause\":%S,\"ns\":%d}}"
                (Obs.Blame.cause_label cause)
                amount
            | None -> ());
            Buffer.add_char buf '}')
          summaries;
        Buffer.add_string buf "\n ]}\n";
        Buffer.contents buf
      | "sarif" ->
        let results = ref [] in
        let add rule_id level message logical =
          results :=
            { Lint.Sarif.rule_id; level; message; logical = Some logical }
            :: !results
        in
        List.iter
          (fun (s : Obs.Blame.task_summary) ->
            if s.s_residual_violations > 0 then
              add "explain/conservation" Lint.Sarif.Error
                (Printf.sprintf
                   "blame components of %d job(s) missed the observed \
                    response by up to %dns"
                   s.s_residual_violations s.s_max_abs_residual)
                (Printf.sprintf "%s, task %d" preset_name s.s_id))
          summaries;
        List.iter
          (fun (tid, cause, amount) ->
            add "explain/miss" Lint.Sarif.Error
              (Printf.sprintf "deadline miss: dominant blame %s (%dns)"
                 (Obs.Blame.cause_label cause)
                 amount)
              (Printf.sprintf "%s, task %d" preset_name tid))
          verdicts;
        Lint.Sarif.render ~tool_name:"emeralds-explain" (List.rev !results)
      | _ -> assert false
    in
    (match out with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc output);
      Printf.printf "%s output written to %s\n" format path
    | None -> print_string output);
    if
      misses > 0 || overruns > 0 || kills > 0
      || Obs.Blame.residual_violations blame > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute every job's response time to named causes (execution, \
          per-rank interference, per-semaphore blocking, Table-1 overhead, \
          backlog, suspension) and cross-validate each component against \
          its analytical term: absint demand, the RTA interference \
          decomposition, the lint blocking term and the overhead budget at \
          the RTA fixpoint.  Exits 1 on any miss, overrun, kill or \
          conservation violation, naming the dominant blamer")
    Term.(
      const run $ preset_name $ sched $ horizon_ms $ seed $ task_filter
      $ format $ out)

(* ------------------------------------------------------------------ *)
(* footprint *)

let footprint_cmd =
  let preset_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Report the footprint derived from a scenario's programs \
             instead of the representative default configuration.")
  in
  let run preset_name =
    let config =
      match preset_name with
      | None -> Emeralds.Footprint.default_config
      | Some n -> (
        match analyze_scenario_of n with
        | Some s -> (Absint.Report.analyze s).Absint.Report.config
        | None ->
          bad_invocation "unknown scenario %S (expected: %s)" n
            (String.concat ", " analyze_scenario_names))
    in
    print_string (Emeralds.Footprint.report config);
    Printf.printf "TOTAL code + RAM: %d bytes (envelope %d-%d): %s\n"
      (Emeralds.Footprint.total_bytes config)
      (fst Emeralds.Footprint.envelope)
      (snd Emeralds.Footprint.envelope)
      (if Emeralds.Footprint.within_envelope config then "within envelope"
       else "OVER");
    if not (Emeralds.Footprint.within_envelope config) then exit 1
  in
  Cmd.v
    (Cmd.info "footprint" ~doc:"Kernel code-size budget and RAM model")
    Term.(const run $ preset_name)

(* ------------------------------------------------------------------ *)
(* campaign (differential soundness fuzzing) *)

let campaign_cmd =
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N"
          ~doc:"Generated scenarios to evaluate.")
  in
  let tasks =
    Arg.(
      value
      & opt (some int) None
      & info [ "tasks" ] ~docv:"N"
          ~doc:"Tasks per generated scenario (default: 3-8, drawn per \
                scenario).")
  in
  let target_u =
    Arg.(
      value
      & opt (some float) None
      & info [ "target-u" ] ~docv:"U"
          ~doc:
            "Target utilization of each generated set (default: drawn in \
             [0.35, 0.75]).")
  in
  let family =
    Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Scenario family: %s (default: a random draw per scenario)."
               (String.concat ", "
                  (List.map Workload.Generator.family_name
                     Workload.Generator.families))))
  in
  let oracles =
    Arg.(
      value & opt string "all"
      & info [ "oracles" ] ~docv:"O1,O2"
          ~doc:
            (Printf.sprintf
               "Oracles to evaluate (comma-separated, or 'all'). Known: %s."
               (String.concat ", "
                  (List.map Campaign.Oracle.name Campaign.Oracle.all))))
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Greedily shrink each falsifying scenario (drop tasks, then \
             segments) to a minimal spec that still falsifies the same \
             oracle.")
  in
  let ablate =
    Arg.(
      value
      & opt (some string) None
      & info [ "ablate" ] ~docv:"NAME"
          ~doc:
            "Deliberately weaken one static layer (rta-blocking: drop \
             blocking terms; absint-demand: halve demand bounds) to prove \
             the campaign detects unsoundness. Findings are expected; the \
             exit code is still 1.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: sarif (SARIF 2.1.0, one run per tool driver; \
             findings are routed to the layer they indict).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Stream every simulated kernel event through lib/obs metrics \
             and append the aggregate digest (response/blocking/latency \
             histograms over the whole campaign) to the text report.")
  in
  let run count seed tasks target_u family oracles shrink ablate json format
      metrics =
    (match format with
    | None | Some "sarif" -> ()
    | Some f -> bad_invocation "unknown format %S (expected: sarif)" f);
    if count <= 0 then bad_invocation "--count must be positive";
    let family =
      Option.map
        (fun f ->
          match Workload.Generator.family_of_string f with
          | Some f -> f
          | None ->
            bad_invocation "unknown family %S (expected: %s)" f
              (String.concat ", "
                 (List.map Workload.Generator.family_name
                    Workload.Generator.families)))
        family
    in
    let oracles =
      match Campaign.Oracle.parse_list oracles with
      | Ok l -> l
      | Error e -> bad_invocation "bad --oracles: %s" e
    in
    let ablation =
      match ablate with
      | None -> Campaign.Oracle.No_ablation
      | Some a -> (
        match Campaign.Oracle.ablation_of_string a with
        | Some a -> a
        | None ->
          bad_invocation "unknown ablation %S (expected: %s)" a
            (String.concat ", "
               (List.map Campaign.Oracle.ablation_name
                  Campaign.Oracle.ablations)))
    in
    (* Findings stream to stderr as they fire, so long campaigns are
       not silent until the final report; stdout stays a single clean
       document in every format. *)
    let progress =
      Some
        (fun i (f : Campaign.Oracle.finding) ->
          Printf.eprintf "falsified gen-%d: %s %s\n%!" i
            (Campaign.Oracle.name f.oracle)
            f.message)
    in
    let s =
      Campaign.Driver.run
        {
          Campaign.Driver.default_config with
          seed;
          count;
          family;
          n_tasks = tasks;
          target_u;
          oracles;
          ablation;
          shrink;
          collect_metrics = metrics;
          progress;
        }
    in
    if format = Some "sarif" then print_endline (Campaign.Report.to_sarif s)
    else if json then print_string (Campaign.Report.to_json s)
    else print_string (Campaign.Report.render_text s);
    if Campaign.Driver.falsifications s > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Differential soundness campaign: generate scenarios and check \
          that every static claim (RTA bounds, absint demand, MC \
          properties) dominates every dynamic observation, shrinking and \
          reporting falsifications as SARIF")
    Term.(
      const run $ count $ seed $ tasks $ target_u $ family $ oracles $ shrink
      $ ablate $ json $ format $ metrics)

(* ------------------------------------------------------------------ *)
(* fabric (multikernel fault-tolerance demos) *)

let fabric_cmd =
  let preset_name =
    Arg.(
      value & opt string "steady"
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Fabric preset: steady (3 shards, no faults), migrate (steady \
             plus one planned task migration), crash (one seeded node \
             crash with failover), crash-storm (4 shards, two staggered \
             crashes under frame loss and corruption), partition (a \
             timed link partition under frame loss).")
  in
  let plan_spec =
    Arg.(
      value & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Extra fault clauses appended to the preset's plan \
             (semicolon-separated; e.g. \
             'frame-drop:one-in=16;node-crash:node=2,at=80ms').")
  in
  let horizon_ms =
    Arg.(
      value & opt int 400
      & info [ "horizon" ] ~docv:"MS" ~doc:"Simulated horizon, milliseconds.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the scorecard as JSON.")
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: sarif (SARIF 2.1.0).")
  in
  let run preset_name plan_spec horizon_ms seed json format =
    (match format with
    | None | Some "sarif" -> ()
    | Some f -> bad_invocation "unknown format %S (expected: sarif)" f);
    if horizon_ms <= 0 then bad_invocation "--horizon must be positive";
    let ms = Model.Time.ms in
    let task ~id ~period_ms ~wcet_ms =
      Model.Task.make ~id ~period:(ms period_ms) ~wcet:(ms wcet_ms) ()
    in
    (* three light shards; the storm preset adds a fourth *)
    let base_assignments =
      [
        (0, [ task ~id:1 ~period_ms:20 ~wcet_ms:2;
              task ~id:2 ~period_ms:40 ~wcet_ms:4 ]);
        (1, [ task ~id:3 ~period_ms:20 ~wcet_ms:2;
              task ~id:4 ~period_ms:50 ~wcet_ms:5 ]);
        (2, [ task ~id:5 ~period_ms:25 ~wcet_ms:2 ]);
      ]
    in
    let assignments, preset_plan, migration =
      match preset_name with
      | "steady" -> (base_assignments, "", None)
      | "migrate" -> (base_assignments, "", Some (ms 50, 5, 0))
      | "crash" -> (base_assignments, "node-crash:node=1,at=50ms", None)
      | "crash-storm" ->
        ( base_assignments
          @ [ (3, [ task ~id:6 ~period_ms:40 ~wcet_ms:2 ]) ],
          "frame-drop:one-in=16;frame-corrupt:one-in=64;\
           node-crash:node=1,at=60ms;node-crash:node=2,at=160ms",
          None )
      | "partition" ->
        ( base_assignments,
          "frame-drop:one-in=16;link-partition:a=0,b=2,from=30ms,until=90ms",
          None )
      | p -> bad_invocation "unknown preset %S" p
    in
    let plan_str =
      match plan_spec with
      | None -> preset_plan
      | Some extra when preset_plan = "" -> extra
      | Some extra -> preset_plan ^ ";" ^ extra
    in
    let plan =
      match Fault.Plan.parse plan_str with
      | Ok p -> p
      | Error e -> bad_invocation "bad --plan: %s" e
    in
    let engine = Sim.Engine.create () in
    let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
    let cluster =
      Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
        ~spec:Emeralds.Sched.Edf ~seed ~assignments ()
    in
    Fabric.Cluster.install_plan cluster plan;
    (match migration with
    | None -> ()
    | Some (at, tid, dst) ->
      ignore
        (Sim.Engine.schedule engine ~at (fun () ->
             ignore (Fabric.Cluster.migrate cluster ~tid ~dst))));
    let horizon = ms horizon_ms in
    Fabric.Cluster.run cluster ~until:horizon;
    let score = Fabric.Cluster.score cluster ~horizon in
    if format = Some "sarif" then
      print_endline
        (Lint.Sarif.render ~tool_name:"emeralds-fabric"
           (Fault.Report.net_to_sarif score))
    else if json then print_endline (Fault.Report.net_to_json score)
    else print_string (Fault.Report.render_net score);
    let fault_activity =
      Fabric.Cluster.crashes cluster <> []
      || Fabric.Cluster.shed cluster <> []
      || score.Fault.Report.n_dropped > 0
      || score.Fault.Report.n_corrupt > 0
      || score.Fault.Report.n_timeouts > 0
    in
    if (not (Fault.Report.net_ok score)) || fault_activity then exit 1
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run several kernel shards on one fieldbus as a fault-tolerant \
          multikernel fabric: heartbeat failure detection, reliable \
          frame delivery with retry/backoff, task migration with RTA \
          re-admission, and an end-to-end scorecard checking observed \
          failover latency against the static migration-cost bound")
    Term.(
      const run $ preset_name $ plan_spec $ horizon_ms $ seed $ json $ format)

let () =
  let info =
    Cmd.info "emeralds_cli" ~version:"1.0.0"
      ~doc:"EMERALDS small-memory real-time microkernel reproduction"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd; schedulability_cmd; analyze_cmd; simulate_cmd;
            sensitivity_cmd; lint_cmd; check_cmd; inject_cmd; trace_cmd;
            explain_cmd; footprint_cmd; campaign_cmd; fabric_cmd;
          ]))
