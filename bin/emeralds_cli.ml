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
    report_scenarios ~tool:"emeralds-absint" ~format preset (fun s ->
        let r = Absint.Report.analyze ~cost ~budget_bytes s in
        ( r.diags,
          (fun () ->
            Absint.Report.render r
            ^ if rta then Absint.Report.render_rta r else ""),
          fun () -> Absint.Report.to_json r ))
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
    Emeralds.Kernel.run k ~until:horizon;
    let tr = Emeralds.Kernel.trace k in
    if timeline then Format.printf "%a@." Sim.Trace.pp_timeline tr;
    Option.iter
      (fun path ->
        write_file path (Sim.Trace.to_csv tr);
        Printf.printf "trace written to %s\n" path)
      csv;
    Printf.printf "%s over %s: %d misses, %d switches, overhead %.3fms\n"
      (Emeralds.Sched.spec_name spec)
      (Model.Time.to_string horizon)
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
    report_scenarios ~tool:"emeralds-lint" ~format preset (fun s ->
        let ctx = Lint.Ctx.of_scenario s in
        let diags = Lint.Report.run ctx in
        ( diags,
          (fun () ->
            Lint.Report.render diags
            ^ if blocking then Lint.Report.render_blocking ctx else ""),
          fun () -> Lint.Report.scenario_json s.name diags ))
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
  let horizon =
    Arg.(
      value
      & opt (some (duration ~unit:"ms" 1)) None
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
  let read_span =
    Arg.(
      value
      & opt (duration ~unit:"us" 0) 0
      & info [ "read-span-us" ]
          ~doc:
            "Model state-message reads as taking this long (0 = atomic); \
             non-zero spans expose torn reads to the tear property.")
  in
  let sporadic =
    let window = Arg.conv_parser (duration ~unit:"ms" 1) in
    let parse s =
      match String.split_on_char ':' s with
      | [ tid; lo; hi ] -> (
        match (int_of_string_opt tid, window lo, window hi) with
        | Some tid, Ok lo, Ok hi when lo <= hi -> Ok (tid, lo, hi)
        | _ -> Error (`Msg (Printf.sprintf "bad window %S" s)))
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
  let run (preset : Workload.Scenario.entry) sched horizon max_states
      max_depth props no_por read_span sporadic format rta search_seed =
    let scenario = preset.build () in
    List.iter (fun (t, _, _) -> check_task ~flag:"--sporadic" scenario t)
      sporadic;
    let m =
      Mc.Machine.of_scenario ~sched ~read_span ~sporadic scenario
    in
    let bounds =
      {
        Mc.Explorer.horizon = Option.value horizon ~default:m.hyperperiod;
        max_states;
        max_depth;
      }
    in
    print_report ~out:None ~format
      (Mc.Report.run ~por:(not no_por) ~rta ~seed:search_seed ~props ~bounds
         scenario m)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively explore kernel interleavings within bounds: deadlock \
          freedom, priority-inheritance correctness, invariants, torn \
          reads, deadline safety — with replayable counterexamples")
    Term.(
      const run $ preset $ sched $ horizon $ max_states $ max_depth $ props
      $ no_por $ read_span $ sporadic $ format $ rta $ search_seed)

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

(* Write the dump of the first recorder that triggered, else the live
   window of the last (most faulted) run, to [path], and say so on
   stderr, as trace's freeze note does: stdout holds the report alone. *)
let flightrec_dump recorders path =
  let triggered fr = Obs.Flightrec.triggered fr <> None in
  match List.filter triggered recorders @ List.rev recorders with
  | [] -> ()
  | fr :: _ -> (
    let window = Obs.Flightrec.dump fr in
    write_file path (Obs.Export.perfetto window);
    match Obs.Flightrec.triggered fr with
    | Some { at; entry } ->
      Printf.eprintf
        "flight recorder: %d-event window ending at %s (%.3f ms) written to \
         %s\n"
        (List.length window)
        (Sim.Trace.kind_name (Sim.Trace.kind entry))
        (Model.Time.to_ms_f at) path
    | None ->
      Printf.eprintf
        "flight recorder: no trigger fired; %d-event live window written to \
         %s\n"
        (List.length window) path)

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
      mem_policy sched horizon seed format flightrec_path ring_bytes =
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
        (Fault.Inject.default_config ~scenario ~spec:sched ~horizon ~seed
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
    let doc = Fault.Report.doc (Fault.Report.run cfg) in
    Option.iter (flightrec_dump !recorders) flightrec_path;
    print_report ~out:None ~format doc
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
  let run (preset : Workload.Scenario.entry) sched horizon seed categories
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
    let outcome =
      Fault.Inject.run
        {
          (Fault.Inject.default_config ~scenario ~spec:sched ~horizon ~seed ())
          with
          observer = Some observer;
        }
    in
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
  let run (preset : Workload.Scenario.entry) sched horizon seed task_filter
      format out =
    let scenario = preset.build () in
    check_fits sched scenario.taskset;
    Option.iter (check_task ~flag:"--task" scenario) task_filter;
    print_report ~out ~format
      (Campaign.Explain.run ~name:preset.name ~sched ~horizon ~seed
         ~task:task_filter scenario)
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
    print_report ~out:None ~format
      (Campaign.Report.doc
         (Campaign.Driver.run
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
            }))
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

let fabric_cmd =
  let preset =
    Arg.(
      value
      & opt
          (table ~what:"preset"
             (List.map (fun (p : Fabric.Preset.t) -> (p.name, p))
                Fabric.Preset.all))
          (List.hd Fabric.Preset.all)
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
  let horizon =
    Arg.(
      value
      & opt (duration ~unit:"ms" 1) (Model.Time.ms 400)
      & info [ "horizon-ms"; "horizon" ] ~docv:"MS"
          ~doc:"Simulated horizon, milliseconds.")
  in
  let format = format ~json:true [ `Text; `Json; `Sarif ] in
  let run (preset : Fabric.Preset.t) extra horizon seed format =
    match
      Fabric.Preset.run ~config:Fabric.Cluster.default_config ~seed ~horizon
        ~plan:(preset.plan @ Option.value extra ~default:[])
        ~migration:preset.migration preset.assignments
    with
    | Ok (_, score) ->
      print_report ~out:None ~format (Fault.Report.net_doc score)
    | Error msg -> bad_invocation "--plan: %s" msg
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run several kernel shards on one fieldbus as a fault-tolerant \
          multikernel fabric: heartbeat failure detection, reliable \
          frame delivery with retry/backoff, task migration with RTA \
          re-admission, and an end-to-end scorecard checking observed \
          failover latency against the static migration-cost bound")
    Term.(const run $ preset $ plan $ horizon $ seed $ format)

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
