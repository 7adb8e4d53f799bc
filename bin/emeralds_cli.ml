(* Command-line front end: regenerate the paper's tables and figures,
   analyze workloads off-line, and run kernel simulations. *)

open Cmdliner
open Cli_common

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiments =
  let plain run ~seed:_ ~workloads:_ = run () in
  Experiments.
    [
      ("table1", plain Exp_table1.run); ("figure2", plain Exp_figure2.run);
      ( "figures3to5",
        fun ~seed ~workloads -> Exp_figures3_5.run ~seed ~workloads () );
      ("table3", plain Exp_table3.run); ("semaphores", plain Exp_sem.run);
      ("ipc", plain Exp_ipc.run); ("cyclic", plain Exp_cyclic.run);
      ("ablation", plain Exp_ablation.run);
      ("interrupt", plain Exp_interrupt.run);
    ]

let experiment_cmd =
  (* [None] is "all" *)
  let choices =
    List.map (fun (key, f) -> (key, Some f)) experiments @ [ ("all", None) ]
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (table ~what:"experiment" choices)) None
      & info [] ~docv:"NAME"
          ~doc:(Printf.sprintf "Experiment: %s." (names choices)))
  in
  let workloads =
    Arg.(
      value & opt int 40
      & info [ "workloads" ]
          ~doc:"Random workloads per data point (paper: 500).")
  in
  let run which seed workloads =
    match which with
    | Some f -> print_endline (f ~seed ~workloads)
    | None ->
      List.iter
        (fun (key, f) ->
          print_endline ("==== " ^ key ^ " ====");
          print_endline (f ~seed ~workloads))
        experiments
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(const run $ name_arg $ seed $ workloads)

(* ------------------------------------------------------------------ *)
(* schedulability (off-line feasibility tables) *)

(* schedulability, simulate and sensitivity take a task set: a
   scenario's, a random one, or a spec file's *)
let taskset_preset =
  preset_opt ~doc:"Workload: the task set of a named scenario"

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
    Term.(const run $ taskset_preset $ random_n $ file $ seed)

(* ------------------------------------------------------------------ *)
(* analyze (abstract interpretation) *)

(* Response-time analysis on the derived per-job demand with the absint
   blocking terms; a task below an untimed wait has no bound. *)
let print_derived_rta (r : Absint.Report.t) =
  let blocking = Absint.Report.blocking_terms r in
  let demand = Absint.Report.derived_demand r in
  let rows =
    Array.mapi
      (fun i (tb : Absint.Report.task_bound) ->
        let t = tb.task in
        (t.period, t.deadline, Option.value demand.(i) ~default:t.wcet))
      r.tasks
  in
  let us = Model.Time.to_us_f in
  Printf.printf "\nRTA with derived demand and absint blocking terms:\n";
  Array.iteri
    (fun i (tb : Absint.Report.task_bound) ->
      let t = tb.task in
      let d = us (Option.value demand.(i) ~default:0) in
      if Array.exists Option.is_none (Array.sub demand 0 (i + 1)) then
        Printf.printf "  %-8s demand unbounded (untimed wait): no RTA bound\n"
          t.name
      else
        match Analysis.Rta.response_time ~blocking ~tasks:rows i with
        | None ->
          Printf.printf "  %-8s demand %8.1fus  RTA: unbounded\n" t.name d
        | Some bound ->
          Printf.printf
            "  %-8s demand %8.1fus  B %6.1fus  response %8.1fus  deadline \
             %8.1fus  %s\n"
            t.name d (us blocking.(i)) (us bound) (us t.deadline)
            (if bound <= t.deadline then "ok" else "MISSED"))
    r.tasks

let scenarios_format =
  format ~json:true ~doc:" SARIF is one log for all scenarios."
    [ `Text; `Json; `Sarif ]

let analyze_cmd =
  let preset =
    preset_opt ~doc:"Scenario to analyze (default: the shipped presets)"
  in
  let cost_models = [ ("m68040", Sim.Cost.m68040); ("zero", Sim.Cost.zero) ] in
  let cost =
    Arg.(
      value
      & opt (table ~ci:true ~what:"cost model" cost_models) Sim.Cost.m68040
      & info [ "cost" ] ~docv:"MODEL"
          ~doc:
            (Printf.sprintf
               "Cost model charged for kernel calls: %s (m68040 is the \
                paper's target, zero charges pure program time)."
               (names cost_models)))
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
  let rta =
    Arg.(
      value & flag
      & info [ "rta" ]
          ~doc:
            "Also print response-time analysis fed with the derived \
             per-job demand and the absint blocking terms (instead of \
             declared WCETs and lint terms).")
  in
  let run preset cost budget_bytes format rta =
    report_scenarios ~tool:"emeralds-absint" ~format preset
      (fun s ->
        let r = Absint.Report.analyze ~cost ~budget_bytes s in
        ( r.diags,
          fun () ->
            if format = `Json then print_endline (Absint.Report.to_json r)
            else begin
              Printf.printf "==== %s ====\n" s.name;
              print_string (Absint.Report.render r);
              if rta then print_derived_rta r
            end ))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Abstract interpretation: sound per-task demand intervals, \
          semaphore hold times, interrupt-latency bound, and derived \
          memory footprint with a budget check")
    Term.(const run $ preset $ cost $ budget_bytes $ scenarios_format $ rta)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let sched = sched (Emeralds.Sched.Csd [ 2; 3 ]) in
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
    check_fits spec taskset;
    let k =
      Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec ~taskset ()
    in
    Emeralds.Kernel.run k ~until:(Model.Time.ms horizon);
    let tr = Emeralds.Kernel.trace k in
    if timeline then Format.printf "%a@." Sim.Trace.pp_timeline tr;
    Option.iter
      (fun path ->
        write_file path (Sim.Trace.to_csv tr);
        Printf.printf "trace written to %s\n" path)
      csv;
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
      const run $ taskset_preset $ random_n $ file $ seed $ sched
      $ horizon_ms 1000 $ timeline $ csv)

(* ------------------------------------------------------------------ *)
(* sensitivity *)

let sensitivity_cmd =
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
    Term.(
      const run $ taskset_preset $ random_n $ file $ seed
      $ sched (Emeralds.Sched.Csd [ 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let preset =
    preset_opt ~doc:"Scenario to lint (default: the shipped presets)"
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
  let run preset format blocking =
    report_scenarios ~tool:"emeralds-lint" ~format preset
      (fun s ->
        let ctx = Lint.Ctx.of_scenario s in
        let diags = Lint.Report.run ctx in
        ( diags,
          fun () ->
            if format = `Json then
              Util.Json.(
                print_endline
                  (to_string
                     (Obj
                        [ ("scenario", String s.name);
                          ("findings", Lint.Report.to_json diags) ])))
            else begin
              Printf.printf "==== %s ====\n" s.name;
              print_string (Lint.Report.render diags);
              if blocking then print_string (Lint.Report.render_blocking ctx)
            end ))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify task programs, sync-object usage, and \
          schedulability inputs")
    Term.(const run $ preset $ scenarios_format $ blocking)

(* ------------------------------------------------------------------ *)
(* check (bounded model checker) *)

let check_cmd =
  let preset = preset ~doc:"Scenario to check" "engine" in
  let scheds = Mc.Machine.[ ("fp", Fp); ("rm", Fp); ("edf", Edf) ] in
  let sched =
    Arg.(
      value
      & opt (table ~ci:true ~what:"scheduler" scheds) Mc.Machine.Fp
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:
            "Model scheduler: fp (fixed priority, RM order; also rm) or \
             edf. The checker explores every admissible tie-break either \
             way.")
  in
  let horizon_ms =
    Arg.(
      value
      & opt (some positive) None
      & info [ "horizon-ms" ] ~docv:"MS"
          ~doc:"Virtual-time bound (default: one hyperperiod).")
  in
  let max_states =
    Arg.(
      value & opt positive 200_000
      & info [ "max-states" ] ~docv:"N" ~doc:"Expansion budget.")
  in
  let max_depth =
    Arg.(
      value & opt (at_least 0) 10_000
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Decision-depth budget per path.")
  in
  let props =
    let prop =
      vocab ~what:"property" Mc.Props.names
        (fun s -> Mc.Props.by_name (String.trim s))
        (fun (p : Mc.Props.t) -> p.name)
    in
    Arg.(
      value
      & opt (comma_list prop) Mc.Props.all
      & info [ "props" ] ~docv:"P1,P2"
          ~doc:
            (Printf.sprintf "Properties to check (default: all). Known: %s."
               (one_of Mc.Props.names)))
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ] ~doc:"Disable partial-order reduction.")
  in
  let read_span_us =
    Arg.(
      value & opt (at_least 0) 0
      & info [ "read-span-us" ]
          ~doc:
            "Model state-message reads as taking this long (0 = atomic); \
             non-zero spans expose torn reads to the tear property.")
  in
  let sporadic =
    let parse s =
      match List.map int_of_string_opt (String.split_on_char ':' s) with
      | [ Some tid; Some lo; Some hi ] when 0 < lo && lo <= hi ->
        Ok (tid, Model.Time.ms lo, Model.Time.ms hi)
      | _ -> Error (`Msg (Printf.sprintf "bad window %S" s))
    in
    let print ppf (tid, lo, hi) =
      let ms t = t / Model.Time.ms 1 in
      Format.fprintf ppf "%d:%d:%d" tid (ms lo) (ms hi)
    in
    Arg.(
      value
      & opt_all (conv (parse, print)) []
      & info [ "sporadic" ] ~docv:"TID:MIN_MS:MAX_MS"
          ~doc:
            "Re-model a task as sporadic with the given inter-arrival \
             window (0 < MIN_MS <= MAX_MS); the checker forks over \
             earliest arrival, latest arrival and silence. Repeatable.")
  in
  let format = format ~json:true [ `Text; `Json; `Sarif ] in
  let rta =
    Arg.(
      value & flag
      & info [ "rta" ]
          ~doc:
            "Cross-check: print observed worst-case responses next to the \
             RTA bounds fed with the lint-extracted blocking terms. Turns \
             partial-order reduction off, since merged tie orders can \
             hide the worst response.")
  in
  let search_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Shuffle the exploration order of each branch's children \
             (reproducibly). While no bound truncates the search, the \
             explored states and the verdict are order-independent and \
             only the search path and the reported counterexample vary; \
             a truncated search stops at an order-dependent place, so \
             its counts, worst responses and verdict may vary too.")
  in
  let run (preset : Workload.Scenario.entry) sched horizon_ms max_states
      max_depth props no_por read_span_us sporadic format rta search_seed =
    let scenario = preset.build () in
    List.iter (fun (t, _, _) -> check_task ~flag:"--sporadic" scenario t)
      sporadic;
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
    (* POR merges tie orders, so the RTA cross-check's worst responses
       need it off *)
    let por = not (no_por || rta) in
    let r = Mc.Explorer.check ~por ?seed:search_seed ~props ~bounds m in
    (match format with
    | `Sarif ->
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
    | `Json ->
      let open Util.Json in
      let verdict =
        match r.verdict with
        | `Ok -> [ ("verdict", String "ok") ]
        | `Violation cex ->
          [ ("verdict", String "violation"); ("prop", String cex.prop);
            ("message", String cex.message); ("at_ns", Int cex.at);
            ("choices", Int (List.length cex.choices)) ]
      in
      let response (t : Mc.Machine.mtask) =
        (t.task_name, Int r.max_response.(t.idx))
      in
      print_endline
        (to_string
           (Obj
              ((("scenario", String scenario.name) :: verdict)
              @ [ ("expansions", Int r.expansions);
                  ("distinct", Int r.distinct); ("revisits", Int r.revisits);
                  ("por_skipped", Int r.por_skipped);
                  ("truncated", Bool r.truncated); ("jobs", Int r.jobs);
                  ( "max_response_ns",
                    Obj (Array.to_list (Array.map response m.tasks)) ) ])))
    | `Text ->
      Printf.printf
        "%s: %d tasks, horizon %.1fms, properties: %s%s\n"
        scenario.name (Mc.Machine.n_tasks m)
        (Model.Time.to_ms_f bounds.horizon)
        (String.concat ", " (List.map (fun (p : Mc.Props.t) -> p.name) props))
        (if por then "" else " (POR off)");
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
        let bounds =
          Lint.Blocking_terms.declared_rta (Lint.Ctx.of_scenario scenario)
        in
        Printf.printf "\nRTA cross-check (blocking terms from lint):\n";
        Array.iteri
          (fun i (t : Mc.Machine.mtask) ->
            match bounds.(i) with
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
      end);
    if r.verdict <> `Ok then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively explore kernel interleavings within bounds: deadlock \
          freedom, priority-inheritance correctness, invariants, torn \
          reads, deadline safety — with replayable counterexamples")
    Term.(
      const run $ preset $ sched $ horizon_ms $ max_states $ max_depth $ props
      $ no_por $ read_span_us $ sporadic $ format $ rta $ search_seed)

(* ------------------------------------------------------------------ *)
(* inject (fault injection + enforcement report) *)

let plan_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault.Plan.parse s) in
  let print ppf p = Format.pp_print_string ppf (Fault.Plan.render p) in
  Arg.conv (parse, print)

(* notify, kill, skip-next or demote:N (N >= 1), any case *)
let policy_of s =
  match String.lowercase_ascii s with
  | "notify" -> Some Emeralds.Kernel.Notify_only
  | "kill" -> Some Emeralds.Kernel.Kill_job
  | "skip-next" -> Some Emeralds.Kernel.Skip_next
  | p when String.length p > 7 && String.sub p 0 7 = "demote:" -> (
    match int_of_string_opt (String.sub p 7 (String.length p - 7)) with
    | Some n when n > 0 -> Some (Emeralds.Kernel.Demote n)
    | _ -> None)
  | _ -> None

let policy_names = [ "notify"; "kill"; "skip-next"; "demote:N" ]

let policy_name = function
  | Emeralds.Kernel.Notify_only -> "notify"
  | Kill_job -> "kill"
  | Skip_next -> "skip-next"
  | Demote n -> Printf.sprintf "demote:%d" n

let inject_cmd =
  let preset =
    preset ~runs:true
      ~doc:
        "Scenario to inject into (overrun-demo and storm-demo carry a \
         default fault plan, the others an empty one)"
      "overrun-demo"
  in
  let plan =
    Arg.(
      value
      & opt (some plan_conv) None
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Fault plan (replaces the preset's default plan), e.g. \
             'wcet-scale:tid=2,pct=400;jitter:tid=1,amp=500us'. See \
             lib/fault/plan.mli for the full syntax. A clause on a task \
             the scenario lacks, or a fabric fault (frame-drop, \
             frame-corrupt, node-crash, node-restart, link-partition), \
             is refused with exit 2.")
  in
  let policy =
    Arg.(
      value
      & opt (vocab ~what:"policy" policy_names policy_of policy_name)
          Emeralds.Kernel.Notify_only
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Budget-overrun policy: notify, kill, skip-next, or demote:N \
             (lower the job's priority by N ranks).")
  in
  let miss_policies =
    Emeralds.Kernel.
      [
        ("record", Miss_record); ("kill", Miss_kill);
        ("shed-next", Miss_shed_next);
      ]
  in
  let miss_policy =
    Arg.(
      value
      & opt
          (table ~ci:true ~what:"miss policy" miss_policies)
          Emeralds.Kernel.Miss_record
      & info [ "miss-policy" ] ~docv:"POLICY"
          ~doc:
            (Printf.sprintf "Deadline-miss policy: %s." (names miss_policies)))
  in
  let shed_one_in =
    Arg.(
      value
      & opt (some positive) None
      & info [ "shed-one-in" ] ~docv:"K"
          ~doc:
            "Skip-over overload shedding: a release that finds the previous \
             job still active may be dropped, at most one in every K \
             releases of that task.")
  in
  let mem_policy =
    let parse s =
      if String.lowercase_ascii s = "off" then Some None
      else Option.map Option.some (policy_of s)
    in
    let print = function None -> "off" | Some p -> policy_name p in
    Arg.(
      value
      & opt (vocab ~what:"mem policy" ("off" :: policy_names) parse print) None
      & info [ "mem-policy" ] ~docv:"POLICY"
          ~doc:
            "Live-block quota policy: off (no memory enforcement), notify, \
             kill, skip-next, or demote:N. Quotas are the static analyzer's \
             per-task peak-live bounds; tasks that never allocate stay \
             unenforced.")
  in
  let format = format ~json:true [ `Text; `Json; `Sarif ] in
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
  (* The storm demo's default plan must name the wait queue the scenario
     allocated, so it is built against the instance rather than parsed
     from a constant. *)
  let default_plan (scenario : Workload.Scenario.t) = function
    | "overrun-demo" ->
      [ Fault.Plan.Wcet_scale { tid = 2; pct = 400; from_job = 1 } ]
    | "storm-demo" ->
      let ms = Model.Time.ms and us = Model.Time.us in
      let wq =
        match scenario.irq_signals with wq :: _ -> wq.wq_id | [] -> 0
      in
      Fault.Plan.
        [
          Irq_storm { irq = 9; at = ms 20; count = 40; spacing = us 100 };
          Lost_signal { wq; one_in = 3 };
          Sporadic_burst { tid = 3; at = ms 50; count = 5; spacing = us 500 };
        ]
    | _ -> []
  in
  let run (preset : Workload.Scenario.entry) plan policy miss shed_one_in
      mem_policy sched horizon_ms seed format flightrec_path ring_bytes =
    let scenario = preset.build () in
    check_fits sched scenario.taskset;
    let plan =
      match plan with None -> default_plan scenario preset.name | Some p -> p
    in
    (match Fault.Inject.check_plan scenario plan with
    | Ok () -> ()
    | Error msg -> bad_invocation "--plan: %s" msg);
    let mem_enforcement =
      Option.map
        (fun on_exceed ->
          {
            Emeralds.Kernel.quota_of = Fault.Inject.declared_quotas scenario;
            on_exceed;
          })
        mem_policy
    in
    (* One fresh recorder per kernel the report builds (baseline + one
       per plan cell); the dump comes from the first that triggered. *)
    let recorders = ref [] in
    let observer =
      Option.map
        (fun _ ->
          let bytes = validated_ring_bytes ring_bytes in
          fun k ->
            let fr = Obs.Flightrec.create ~bytes ~triggers:fault_triggers () in
            recorders := !recorders @ [ fr ];
            Obs.Flightrec.attach fr (Emeralds.Kernel.probe k))
        flightrec_path
    in
    let cfg =
      {
        (Fault.Inject.default_config ~scenario ~spec:sched
           ~horizon:(Model.Time.ms horizon_ms) ~seed
           ~enforcement:
             {
               Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
               policy;
               miss;
               shed_one_in;
             }
           ?mem_enforcement ~plan ())
        with
        observer;
      }
    in
    let report = Fault.Report.run cfg in
    (match format with
    | `Sarif ->
      print_endline
        (Lint.Sarif.render ~tool_name:"emeralds-inject"
           (Fault.Report.to_sarif report))
    | `Json -> print_endline (Fault.Report.to_json report)
    | `Text -> print_string (Fault.Report.render report));
    (* the first recorder that triggered, else the live window of the
       last (most faulted) run *)
    let triggered fr = Obs.Flightrec.triggered fr <> None in
    let candidates = List.filter triggered !recorders @ List.rev !recorders in
    (match (flightrec_path, candidates) with
    | None, _ | _, [] -> ()
    | Some path, fr :: _ -> (
      let window = Obs.Flightrec.dump fr in
      write_file path (Obs.Export.perfetto window);
      match Obs.Flightrec.triggered fr with
      | Some { at; entry } ->
        Printf.printf
          "flight recorder: %d-event window ending at %s (%.3f ms) written \
           to %s\n"
          (List.length window)
          (Sim.Trace.kind_name (Sim.Trace.kind entry))
          (Model.Time.to_ms_f at) path
      | None ->
        Printf.printf
          "flight recorder: no trigger fired; %d-event live window written \
           to %s\n"
          (List.length window) path));
    if Fault.Report.violations report then exit 1
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Replay a scenario under a fault plan (WCET overruns, release \
          jitter, IRQ storms, lost signals, sporadic bursts) with runtime \
          budget enforcement, and report detection latency, shedding, and \
          which static predictions the faults falsified")
    Term.(
      const run $ preset $ plan $ policy $ miss_policy $ shed_one_in
      $ mem_policy $ sched Emeralds.Sched.Rm $ horizon_ms 200 $ seed $ format
      $ flightrec_path $ ring_bytes 32_768)

(* trace and explain: one plain run of a scenario, with [observer]
   subscribed to the kernel's probe *)
let observed_run ~scenario ~sched ~horizon_ms ~seed observer =
  Fault.Inject.run
    {
      (Fault.Inject.default_config ~scenario ~spec:sched
         ~horizon:(Model.Time.ms horizon_ms) ~seed ())
      with
      observer = Some observer;
    }

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let preset =
    preset ~runs:true
      ~doc:
        "Scenario to record (full replay: programs attached, IRQ sources \
         firing)"
      "engine"
  in
  let format =
    format
      ~doc:
        " perfetto is Chrome/Perfetto trace-event JSON of the \
         flight-recorder window, csv the same window as CSV, metrics the \
         Prometheus text exposition of the streaming metrics, json the \
         metrics digest."
      [ `Perfetto; `Csv; `Metrics; `Json ]
  in
  let run (preset : Workload.Scenario.entry) sched horizon_ms seed categories
      ring_bytes format out =
    let scenario = preset.build () in
    check_fits sched scenario.taskset;
    let mask = Obs.Probe.mask_of categories in
    let ring_bytes = validated_ring_bytes ring_bytes in
    let metrics = Obs.Metrics.create () in
    let flightrec =
      Obs.Flightrec.create ~bytes:ring_bytes ~triggers:fault_triggers ()
    in
    let observer k =
      let probe = Emeralds.Kernel.probe k in
      Obs.Probe.subscribe probe ~mask (Obs.Metrics.observe metrics);
      Obs.Probe.subscribe probe ~mask (Obs.Flightrec.record flightrec)
    in
    let outcome = observed_run ~scenario ~sched ~horizon_ms ~seed observer in
    let window = Obs.Flightrec.dump flightrec in
    emit ~out ~format
      (match format with
      | `Perfetto ->
        Obs.Export.perfetto
          ~blame:(Obs.Blame.of_taskset scenario.taskset)
          window
      | `Csv -> Sim.Trace.csv_of_stamped window
      | `Metrics -> Obs.Export.prometheus metrics
      | `Json -> Obs.Export.metrics_json metrics);
    let tr = Emeralds.Kernel.trace outcome.kernel in
    (match Obs.Flightrec.triggered flightrec with
    | Some { at; entry } ->
      Printf.eprintf
        "flight recorder froze at %.3f ms (%s); window holds the last %d of \
         %d events\n"
        (Model.Time.to_ms_f at)
        (Sim.Trace.kind_name (Sim.Trace.kind entry))
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
      const run $ preset $ sched Emeralds.Sched.Rm $ horizon_ms 100 $ seed
      $ categories $ ring_bytes (fst Emeralds.Footprint.envelope) $ format
      $ out)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  let preset = preset ~runs:true ~doc:"Scenario to explain" "branchy" in
  let sched =
    sched
      ~doc:
        "  The analytical bound columns assume RM and are suppressed \
         otherwise."
      Emeralds.Sched.Rm
  in
  let task_filter =
    Arg.(
      value
      & opt (some int) None
      & info [ "task" ] ~docv:"TID" ~doc:"Explain only this task id.")
  in
  let format =
    format
      ~doc:
        " text is the ranked blame tables, json a machine digest, sarif \
         the misses and conservation and domination violations as \
         results."
      [ `Text; `Json; `Sarif ]
  in
  let run (preset : Workload.Scenario.entry) sched horizon_ms seed task_filter
      format out =
    let preset_name = preset.name in
    let scenario = preset.build () in
    check_fits sched scenario.taskset;
    Option.iter (check_task ~flag:"--task" scenario) task_filter;
    let tasks = Model.Taskset.tasks scenario.taskset in
    (* static terms: the campaign's own (all RM-specific); tasks RTA
       does not cover, or any other scheduler, get no bound columns *)
    let statics = Campaign.Eval.statics scenario in
    let bounded i = sched = Emeralds.Sched.Rm && statics.eligible.(i) in
    (* simulation with the attributor on the probe stream *)
    let blame =
      Obs.Blame.create ~tasks:(Obs.Blame.of_taskset scenario.taskset) ()
    in
    let observer k = Obs.Blame.attach blame (Emeralds.Kernel.probe k) in
    let outcome = observed_run ~scenario ~sched ~horizon_ms ~seed observer in
    let tr = Emeralds.Kernel.trace outcome.kernel in
    (* the blame oracle's verdicts; its RM bounds judge no other
       scheduler *)
    let violations s =
      List.filter
        (fun (v : Campaign.Eval.violation) ->
          v.term = None || sched = Emeralds.Sched.Rm)
        (Campaign.Eval.blame_violations statics tr s)
    in
    let misses = Sim.Trace.deadline_misses tr in
    let overruns = Sim.Trace.budget_overruns tr in
    let kills = Sim.Trace.jobs_killed tr in
    let selected (s : Obs.Blame.task_summary) =
      match task_filter with Some tid -> s.s_id = tid | None -> true
    in
    let summaries = List.filter selected (Obs.Blame.summaries blame) in
    let task_of (s : Obs.Blame.task_summary) =
      Array.to_list tasks |> List.find (fun (t : Model.Task.t) -> t.id = s.s_id)
    in
    (* the dominant cause of each missing task's worst job — the line
       the exit-1 path prints and SARIF reports *)
    let verdicts =
      List.filter_map
        (fun (s : Obs.Blame.task_summary) ->
          match s.s_worst with
          | Some bd when s.s_max_response > (task_of s).deadline ->
            let cause, amount = Obs.Blame.dominant bd in
            Some (s.s_id, cause, amount)
          | _ -> None)
        summaries
    in
    let output =
      match format with
      | `Text ->
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
            Printf.bprintf buf
              "\ntau%d (rank %d): %d job(s), max response %dns%s%s\n" s.s_id
              s.s_rank s.s_jobs s.s_max_response
              (match statics.rta.(i) with
              | Some r when bounded i -> Printf.sprintf ", RTA bound %dns" r
              | _ -> "")
              (if s.s_max_response > (task_of s).deadline then "  ** MISSED **"
               else "");
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
      | `Json ->
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
          let i = s.s_rank in
          Obj
            ([ ("tid", Int s.s_id); ("rank", Int i); ("jobs", Int s.s_jobs);
               ("max_response", Int s.s_max_response);
               ("missed", Bool (s.s_max_response > (task_of s).deadline)) ]
            @ (match statics.rta.(i) with
              | Some r when bounded i -> [ ("rta_bound", Int r) ]
              | _ -> [])
            @ Option.fold s.s_worst ~none:[] ~some:(fun bd ->
                  [ ("worst", worst bd) ]))
        in
        to_string
          (Obj
             [ ("scenario", String preset_name);
               ("sched", String (Emeralds.Sched.spec_name sched));
               ("horizon_ms", Int horizon_ms); ("seed", Int seed);
               ("misses", Int misses); ("overruns", Int overruns);
               ("kills", Int kills);
               ( "residual_violations",
                 Int (Obs.Blame.residual_violations blame) );
               ("tasks", List (List.map task summaries)) ])
        ^ "\n"
      | `Sarif ->
        let result rule_id tid message =
          {
            Lint.Sarif.rule_id;
            level = Lint.Sarif.Error;
            message;
            logical = Some (Printf.sprintf "%s, task %d" preset_name tid);
          }
        in
        let violation (v : Campaign.Eval.violation) =
          result
            (if v.term = None then "explain/conservation"
             else "explain/domination")
            v.tid v.message
        in
        let miss (tid, cause, amount) =
          result "explain/miss" tid
            (Printf.sprintf "deadline miss: dominant blame %s (%dns)"
               (Obs.Blame.cause_label cause)
               amount)
        in
        Lint.Sarif.render ~tool_name:"emeralds-explain"
          (List.map violation (List.concat_map violations summaries)
          @ List.map miss verdicts)
    in
    emit ~out ~format output;
    if
      misses > 0 || overruns > 0 || kills > 0
      || List.exists (fun s -> violations s <> []) (Obs.Blame.summaries blame)
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
          the RTA fixpoint.  Exits 1 on any miss, overrun, kill, \
          conservation violation or bound the blame oracle finds \
          exceeded, naming the dominant blamer")
    Term.(
      const run $ preset $ sched $ horizon_ms 100 $ seed $ task_filter
      $ format $ out)

(* ------------------------------------------------------------------ *)
(* footprint *)

let footprint_cmd =
  let preset =
    preset_opt
      ~doc:
        "Report the footprint derived from a scenario's programs instead \
         of the representative default configuration"
  in
  let run preset =
    let config =
      match preset with
      | None -> Emeralds.Footprint.default_config
      | Some (e : Workload.Scenario.entry) ->
        (Absint.Report.analyze (e.build ())).config
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
    Term.(const run $ preset)

(* ------------------------------------------------------------------ *)
(* campaign (differential soundness fuzzing) *)

let campaign_cmd =
  let count =
    Arg.(
      value & opt positive 100
      & info [ "count" ] ~docv:"N"
          ~doc:"Generated scenarios to evaluate.")
  in
  let tasks =
    Arg.(
      value
      & opt (some positive) None
      & info [ "tasks" ] ~docv:"N"
          ~doc:"Tasks per generated scenario (default: 3-8, drawn per \
                scenario).")
  in
  let target_u =
    let parse s =
      match float_of_string_opt s with
      | Some u when u > 0. && u <= 0.85 -> Ok u
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "%S is not a utilization in (0, 0.85]" s))
    in
    Arg.(
      value
      & opt (some (conv (parse, Format.pp_print_float))) None
      & info [ "target-u" ] ~docv:"U"
          ~doc:
            "Target utilization of each generated set, at most 0.85, the \
             generator's cap (default: drawn in [0.35, 0.75]).")
  in
  let family =
    let families =
      List.map Workload.Generator.family_name Workload.Generator.families
    in
    Arg.(
      value
      & opt
          (some
             (vocab ~what:"family" families Workload.Generator.family_of_string
                Workload.Generator.family_name))
          None
      & info [ "family" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Scenario family: %s (default: a random draw per scenario)."
               (one_of families)))
  in
  let oracles =
    let oracle_names = List.map Campaign.Oracle.name Campaign.Oracle.all in
    let parse s =
      Result.map_error (fun e -> `Msg e) (Campaign.Oracle.parse_list s)
    in
    let print ppf l =
      Format.pp_print_string ppf
        (if l = Campaign.Oracle.all then "all"
         else String.concat "," (List.map Campaign.Oracle.name l))
    in
    Arg.(
      value
      & opt (conv (parse, print)) Campaign.Oracle.all
      & info [ "oracles" ] ~docv:"O1,O2"
          ~doc:
            (Printf.sprintf
               "Oracles to evaluate (comma-separated, or 'all'). Known: %s."
               (one_of oracle_names)))
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
    let ablations =
      List.map Campaign.Oracle.ablation_name Campaign.Oracle.ablations
    in
    Arg.(
      value
      & opt
          (vocab ~what:"ablation" ablations Campaign.Oracle.ablation_of_string
             Campaign.Oracle.ablation_name)
          Campaign.Oracle.No_ablation
      & info [ "ablate" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Deliberately weaken one static layer (%s; e.g. \
                rta-blocking drops blocking terms, absint-demand halves \
                demand bounds) to prove the campaign detects unsoundness. \
                Findings are expected; the exit code is still 1."
               (one_of ablations)))
  in
  let format =
    format ~json:true
      ~doc:
        " SARIF is one run per tool driver; findings are routed to the \
         layer they indict."
      [ `Text; `Json; `Sarif ]
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
  let run count seed tasks target_u family oracles shrink ablation format
      metrics =
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
          Campaign.Driver.seed;
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
    (match format with
    | `Sarif -> print_endline (Campaign.Report.to_sarif s)
    | `Json -> print_endline (Campaign.Report.to_json s)
    | `Text -> print_string (Campaign.Report.render_text s));
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
      $ ablate $ format $ metrics)

(* ------------------------------------------------------------------ *)
(* fabric (multikernel fault-tolerance demos) *)

(* name -> (shard assignments, fault plan, planned migration) *)
let fabric_presets =
  let ms = Model.Time.ms in
  let task ~id ~period_ms ~wcet_ms =
    Model.Task.make ~id ~period:(ms period_ms) ~wcet:(ms wcet_ms) ()
  in
  (* three light shards; the storm preset adds a fourth *)
  let base =
    [
      (0, [ task ~id:1 ~period_ms:20 ~wcet_ms:2;
            task ~id:2 ~period_ms:40 ~wcet_ms:4 ]);
      (1, [ task ~id:3 ~period_ms:20 ~wcet_ms:2;
            task ~id:4 ~period_ms:50 ~wcet_ms:5 ]);
      (2, [ task ~id:5 ~period_ms:25 ~wcet_ms:2 ]);
    ]
  in
  [
    ("steady", (base, "", None));
    ("migrate", (base, "", Some (ms 50, 5, 0)));
    ("crash", (base, "node-crash:node=1,at=50ms", None));
    ( "crash-storm",
      ( base @ [ (3, [ task ~id:6 ~period_ms:40 ~wcet_ms:2 ]) ],
        "frame-drop:one-in=16;frame-corrupt:one-in=64;\
         node-crash:node=1,at=60ms;node-crash:node=2,at=160ms",
        None ) );
    ( "partition",
      ( base,
        "frame-drop:one-in=16;link-partition:a=0,b=2,from=30ms,until=90ms",
        None ) );
  ]

let fabric_cmd =
  let preset =
    Arg.(
      value
      & opt
          (table ~what:"preset" fabric_presets)
          (List.assoc "steady" fabric_presets)
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Fabric preset: steady (3 shards, no faults), migrate (steady \
             plus one planned task migration), crash (one seeded node \
             crash with failover), crash-storm (4 shards, two staggered \
             crashes under frame loss and corruption), partition (a \
             timed link partition under frame loss).")
  in
  let plan =
    Arg.(
      value
      & opt (some plan_conv) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Extra fault clauses appended to the preset's plan \
             (semicolon-separated; e.g. \
             'frame-drop:one-in=16;node-crash:node=2,at=80ms'), each \
             frame clause counting frames on its own. A clause the \
             fabric does not interpret, naming a node the cluster lacks, \
             or changing nothing when it fires (by instant, then plan \
             order: restarting a live node, crashing a dead one) is \
             refused with exit 2.")
  in
  let horizon_ms =
    Arg.(
      value & opt positive 400
      & info [ "horizon-ms"; "horizon" ] ~docv:"MS"
          ~doc:"Simulated horizon, milliseconds.")
  in
  let format = format ~json:true [ `Text; `Json; `Sarif ] in
  let run (assignments, preset_plan, migration) extra horizon_ms seed format =
    let plan =
      Result.get_ok (Fault.Plan.parse preset_plan)
      @ Option.value extra ~default:[]
    in
    let engine = Sim.Engine.create () in
    let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
    let cluster =
      Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
        ~spec:Emeralds.Sched.Edf ~seed ~assignments ()
    in
    (match Fabric.Cluster.check_plan cluster plan with
    | Ok () -> ()
    | Error msg -> bad_invocation "--plan: %s" msg);
    Fabric.Cluster.install_plan cluster plan;
    Option.iter
      (fun (at, tid, dst) ->
        let migrate () = ignore (Fabric.Cluster.migrate cluster ~tid ~dst) in
        ignore (Sim.Engine.schedule engine ~at migrate))
      migration;
    let horizon = Model.Time.ms horizon_ms in
    Fabric.Cluster.run cluster ~until:horizon;
    let score = Fabric.Cluster.score cluster ~horizon in
    (match format with
    | `Sarif ->
      print_endline
        (Lint.Sarif.render ~tool_name:"emeralds-fabric"
           (Fault.Report.net_to_sarif score))
    | `Json -> print_endline (Fault.Report.net_to_json score)
    | `Text -> print_string (Fault.Report.render_net score));
    (* exit 1 on any failure (shed tasks and timeouts are one) or on
       fault activity *)
    if
      Fault.Report.net_failures score <> []
      || score.n_crashes + score.n_dropped + score.n_corrupt > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run several kernel shards on one fieldbus as a fault-tolerant \
          multikernel fabric: heartbeat failure detection, reliable \
          frame delivery with retry/backoff, task migration with RTA \
          re-admission, and an end-to-end scorecard checking observed \
          failover latency against the static migration-cost bound")
    Term.(const run $ preset $ plan $ horizon_ms $ seed $ format)

let () =
  let info =
    Cmd.info "emeralds_cli" ~version:"1.0.0"
      ~doc:"EMERALDS small-memory real-time microkernel reproduction"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           experiment_cmd; schedulability_cmd; analyze_cmd; simulate_cmd;
           sensitivity_cmd; lint_cmd; check_cmd; inject_cmd; trace_cmd;
           explain_cmd; footprint_cmd; campaign_cmd; fabric_cmd;
         ])
  in
  (* a usage error cmdliner reports is a bad invocation like any other *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
