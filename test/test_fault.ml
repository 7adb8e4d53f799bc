(* Fault-injection harness: plan DSL round-trip, the empty-plan
   differential (enforcement installed but never exercised must be
   bit-identical to the pre-enforcement kernel), overrun policies,
   skip-over overload shedding, and the resilience report. *)

open Alcotest

let ms = Model.Time.ms
let us = Model.Time.us

(* ------------------------------------------------------------------ *)
(* Plan DSL *)

let full_plan : Fault.Plan.t =
  [
    Wcet_scale { tid = 2; pct = 400; from_job = 1 };
    Wcet_add { tid = 1; extra = ms 3; from_job = 2 };
    Release_jitter { tid = 1; amplitude = us 500 };
    Irq_storm { irq = 9; at = ms 20; count = 40; spacing = us 100 };
    Irq_drop { irq = 9; one_in = 3 };
    Lost_signal { wq = 0; one_in = 4 };
    Sporadic_burst { tid = 3; at = ms 50; count = 3; spacing = ms 1 };
    Frame_drop { one_in = 16 };
    Frame_corrupt { one_in = 32 };
    Node_crash { node = 1; at = ms 50 };
    Node_restart { node = 1; at = ms 200 };
    Link_partition { a = 0; b = 2; from_ = ms 10; until = ms 60 };
  ]

let test_plan_roundtrip () =
  match Fault.Plan.parse (Fault.Plan.render full_plan) with
  | Ok p -> check bool "parse (render p) = p" true (p = full_plan)
  | Error e -> fail ("round-trip failed: " ^ e)

let test_plan_parse () =
  check bool "empty string is the empty plan" true
    (Fault.Plan.parse "" = Ok Fault.Plan.empty);
  check bool "from defaults to job 1" true
    (Fault.Plan.parse "wcet-scale:tid=2,pct=400"
    = Ok [ Wcet_scale { tid = 2; pct = 400; from_job = 1 } ]);
  check bool "bare integers are nanoseconds" true
    (Fault.Plan.parse "jitter:tid=1,amp=750"
    = Ok [ Release_jitter { tid = 1; amplitude = 750 } ]);
  let rejected s =
    match Fault.Plan.parse s with Ok _ -> false | Error _ -> true
  in
  check bool "unknown kind rejected" true (rejected "bogus:tid=1");
  check bool "one-in below 2 rejected" true (rejected "irq-drop:irq=9,one-in=1");
  check bool "bad duration rejected" true (rejected "wcet-add:tid=1,extra=3kg");
  check bool "missing key rejected" true (rejected "wcet-scale:tid=2");
  check bool "negative pct rejected" true (rejected "wcet-scale:tid=2,pct=-50")

let test_plan_parse_fabric () =
  check bool "node-crash parses" true
    (Fault.Plan.parse "node-crash:node=2,at=50ms"
    = Ok [ Node_crash { node = 2; at = ms 50 } ]);
  check bool "link-partition parses" true
    (Fault.Plan.parse "link-partition:a=0,b=1,from=10ms,until=60ms"
    = Ok [ Link_partition { a = 0; b = 1; from_ = ms 10; until = ms 60 } ]);
  let rejected s =
    match Fault.Plan.parse s with Ok _ -> false | Error _ -> true
  in
  check bool "frame-drop one-in below 2 rejected" true
    (rejected "frame-drop:one-in=1");
  check bool "frame-corrupt one-in below 2 rejected" true
    (rejected "frame-corrupt:one-in=0");
  check bool "negative node rejected" true
    (rejected "node-crash:node=-1,at=50ms");
  check bool "node-restart missing at rejected" true
    (rejected "node-restart:node=1");
  check bool "self-partition rejected" true
    (rejected "link-partition:a=1,b=1,from=0,until=10ms");
  check bool "inverted partition window rejected" true
    (rejected "link-partition:a=0,b=1,from=60ms,until=10ms")

(* ------------------------------------------------------------------ *)
(* Empty-plan differential *)

(* The acceptance differential: with the empty plan, a kernel with
   budgets installed (declared WCETs, notify-only) must produce exactly
   the trace of the plain pre-enforcement kernel — same entries, busy
   time and context switches. *)
let enforcement_on : Emeralds.Kernel.enforcement =
  {
    Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
    policy = Emeralds.Kernel.Notify_only;
    miss = Emeralds.Kernel.Miss_record;
    shed_one_in = None;
  }

let test_empty_plan_differential () =
  let sc = Workload.Scenario.overrun_demo () in
  let cfg =
    Fault.Inject.default_config ~scenario:sc ~enforcement:enforcement_on ()
  in
  let out = Fault.Inject.run cfg in
  check (list (pair int string)) "no activations" [] out.activations;
  (* the same simulation, hand-built without any enforcement *)
  let plain =
    Emeralds.Kernel.create ~cost:cfg.cost ~spec:cfg.spec
      ~taskset:sc.Workload.Scenario.taskset ~programs:sc.Workload.Scenario.programs
      ()
  in
  Emeralds.Kernel.run plain ~until:cfg.horizon;
  let sig_of k =
    let tr = Emeralds.Kernel.trace k in
    ( Sim.Trace.entries tr,
      Sim.Trace.busy_time tr,
      Sim.Trace.context_switches tr )
  in
  check bool "trace bit-identical to pre-enforcement kernel" true
    (sig_of out.kernel = sig_of plain)

(* ------------------------------------------------------------------ *)
(* Overrun policies *)

let overrun_plan : Fault.Plan.t =
  [ Wcet_scale { tid = 2; pct = 400; from_job = 1 } ]

let run_demo ~policy ?(miss = Emeralds.Kernel.Miss_record) ?shed_one_in () =
  let sc = Workload.Scenario.overrun_demo () in
  let cfg =
    Fault.Inject.default_config ~scenario:sc ~plan:overrun_plan
      ~enforcement:
        {
          Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
          policy;
          miss;
          shed_one_in;
        }
      ()
  in
  Fault.Inject.run cfg

let enf_stat out tid =
  List.find
    (fun (s : Emeralds.Kernel.enf_stats) -> s.e_tid = tid)
    (Emeralds.Kernel.enforcement_stats out.Fault.Inject.kernel)

let test_policy_notify () =
  let out = run_demo ~policy:Emeralds.Kernel.Notify_only () in
  let s = enf_stat out 2 in
  check bool "overruns detected" true (s.e_overruns > 0);
  check int "notify kills nothing" 0 s.e_kills;
  check bool "detection instant recorded" true (s.e_first_detection <> None)

let test_policy_kill () =
  let out = run_demo ~policy:Emeralds.Kernel.Kill_job () in
  let s = enf_stat out 2 in
  check bool "offending jobs killed" true (s.e_kills > 0);
  (* killing the hog protects the lower-priority task *)
  let misses_of out tid =
    (List.find
       (fun (s : Emeralds.Kernel.task_stats) -> s.tid = tid)
       (Emeralds.Kernel.stats out.Fault.Inject.kernel))
      .misses
  in
  let notify = run_demo ~policy:Emeralds.Kernel.Notify_only () in
  check bool "tau3 protected vs notify-only" true
    (misses_of out 3 <= misses_of notify 3)

let test_policy_skip_next () =
  let out = run_demo ~policy:Emeralds.Kernel.Skip_next () in
  let s = enf_stat out 2 in
  check bool "kills recorded" true (s.e_kills > 0);
  check bool "next releases shed" true (s.e_sheds > 0)

let test_miss_kill () =
  let out =
    run_demo ~policy:Emeralds.Kernel.Notify_only ~miss:Emeralds.Kernel.Miss_kill
      ()
  in
  let s = enf_stat out 2 in
  check bool "late jobs killed by the miss policy" true (s.e_kills > 0)

(* ------------------------------------------------------------------ *)
(* Live-block quota enforcement *)

(* alloc-demo's mixer holds 3 blocks at once: a 1-block quota must
   trip (Quota_exceeded in the trace, quota_hits counted), while the
   analyzer's own declared quotas — the peak-live upper bounds — never
   fire on the conforming program. *)
let test_mem_quota () =
  let sc = Workload.Scenario.alloc_demo () in
  let run quota_of =
    let cfg =
      Fault.Inject.default_config ~scenario:sc
        ~mem_enforcement:{ Emeralds.Kernel.quota_of; on_exceed = Notify_only }
        ()
    in
    (Fault.Inject.run cfg).kernel
  in
  let tight = run (fun _ -> Some 1) in
  let hits k =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Emeralds.Kernel.quota_hits k)
  in
  check bool "1-block quota trips" true (hits tight > 0);
  check bool "Quota_exceeded traced" true
    (List.exists
       (fun (s : Sim.Trace.stamped) ->
         match s.entry with
         | Sim.Trace.Quota_exceeded { quota = 1; _ } -> true
         | _ -> false)
       (Sim.Trace.entries (Emeralds.Kernel.trace tight)));
  let declared = run (Fault.Inject.declared_quotas sc) in
  check int "declared peak-live quotas never fire" 0 (hits declared)

(* ------------------------------------------------------------------ *)
(* Skip-over shedding bound *)

(* A permanently overloaded task (program demands 1.5 periods every
   job) with one-in-3 shedding: the skip-over guarantee is at most one
   shed in any 3 consecutive arrivals. *)
let test_shed_ratio () =
  let t = Model.Task.make ~id:1 ~period:(ms 10) ~wcet:(ms 10) () in
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Rm
      ~taskset:(Model.Taskset.of_list [ t ])
      ~programs:(fun _ -> [ Emeralds.Program.compute (ms 15) ])
      ()
  in
  Emeralds.Kernel.set_enforcement k
    (Some
       {
         Emeralds.Kernel.budget_of = (fun _ -> None);
         policy = Emeralds.Kernel.Notify_only;
         miss = Emeralds.Kernel.Miss_record;
         shed_one_in = Some 3;
       });
  Emeralds.Kernel.run k ~until:(ms 100);
  let s =
    List.find
      (fun (s : Emeralds.Kernel.enf_stats) -> s.e_tid = 1)
      (Emeralds.Kernel.enforcement_stats k)
  in
  (* 10 arrivals in 100 ms: at most ceil(10/3) sheds, and overload is
     permanent so the shedder does fire *)
  check bool "shedder fires under permanent overload" true (s.e_sheds > 0);
  check bool "at most one in three arrivals shed" true (s.e_sheds <= 4);
  (* the trace records every shed *)
  let shed_entries =
    List.length
      (List.filter
         (fun (st : Sim.Trace.stamped) ->
           match st.entry with Sim.Trace.Job_shed _ -> true | _ -> false)
         (Sim.Trace.entries (Emeralds.Kernel.trace k)))
  in
  check int "trace sheds match stats" s.e_sheds shed_entries

let test_shedding_degrades_gracefully () =
  let sc () = Workload.Scenario.storm_demo () in
  let burst : Fault.Plan.t =
    [ Sporadic_burst { tid = 3; at = ms 50; count = 5; spacing = us 500 } ]
  in
  let run ?shed_one_in () =
    let cfg =
      Fault.Inject.default_config ~scenario:(sc ()) ~plan:burst
        ~enforcement:
          {
            Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
            policy = Emeralds.Kernel.Notify_only;
            miss = Emeralds.Kernel.Miss_record;
            shed_one_in;
          }
        ()
    in
    Fault.Inject.run cfg
  in
  let misses out = Emeralds.Kernel.total_misses out.Fault.Inject.kernel in
  let unshed = run () in
  let shed = run ~shed_one_in:2 () in
  let sheds =
    List.fold_left
      (fun acc (s : Emeralds.Kernel.enf_stats) -> acc + s.e_sheds)
      0
      (Emeralds.Kernel.enforcement_stats shed.Fault.Inject.kernel)
  in
  check bool "burst beyond minimum interarrival misses deadlines" true
    (misses unshed > 0);
  check bool "shedding engaged" true (sheds > 0);
  check bool "shedding reduces misses" true (misses shed < misses unshed)

(* ------------------------------------------------------------------ *)
(* Resilience report *)

let test_report_clean () =
  let sc = Workload.Scenario.overrun_demo () in
  let cfg =
    Fault.Inject.default_config ~scenario:sc ~enforcement:enforcement_on ()
  in
  let r = Fault.Report.run cfg in
  check bool "no violations on the clean demo" false (Fault.Report.violations r);
  match r.r_cells with
  | cell :: _ ->
    check string "first cell is the differential guard" "no-fault" cell.c_label;
    check int "no misses" 0 cell.c_misses;
    check bool "trace matches the enforcement-free baseline" true
      cell.c_matches_baseline
  | [] -> fail "report has no cells"

let test_report_detects_and_falsifies () =
  let sc = Workload.Scenario.overrun_demo () in
  let cfg =
    Fault.Inject.default_config ~scenario:sc ~plan:overrun_plan
      ~enforcement:enforcement_on ()
  in
  let r = Fault.Report.run cfg in
  check bool "violations reported" true (Fault.Report.violations r);
  let cell =
    List.find (fun (c : Fault.Report.cell) -> c.c_label <> "no-fault") r.r_cells
  in
  check bool "faulted cell diverges from baseline" false cell.c_matches_baseline;
  check bool "overruns counted" true (cell.c_overruns > 0);
  (match cell.c_detection_latency with
  | Some l -> check bool "detection latency non-negative" true (l >= 0)
  | None -> fail "detection latency missing");
  check bool "a static prediction was falsified" true (cell.c_falsified <> []);
  check bool "rta or absint named as source" true
    (List.for_all
       (fun (p : Fault.Report.prediction) ->
         p.p_source = "rta" || p.p_source = "absint")
       cell.c_falsified)

(* ------------------------------------------------------------------ *)
(* Storms and bursts past the horizon *)

(* A storm or burst whose instants run far past the horizon, or would
   overflow it, delivers only what falls within the horizon: it runs as
   the same plan cut to the count that ends there (20 ms + 300 x 100 us
   is the 50 ms horizon; a 3e18 ns spacing leaves the first), and the
   report comes back. *)
let test_plans_past_horizon () =
  let cfg plan =
    match Fault.Plan.parse plan with
    | Ok plan ->
      Fault.Inject.default_config
        ~scenario:(Option.get (Workload.Scenario.make "engine"))
        ~horizon:(ms 50) ~plan ()
    | Error e -> fail e
  in
  let trace plan = Emeralds.Kernel.trace (Fault.Inject.run (cfg plan)).kernel in
  List.iter
    (fun target ->
      List.iter
        (fun (count, spacing, in_horizon) ->
          let plan count =
            Printf.sprintf "%s,at=20ms,count=%s,spacing=%s" target count spacing
          in
          check bool (plan count ^ ": only the in-horizon deliveries") true
            (Sim.Trace.signature (trace (plan count))
            = Sim.Trace.signature (trace (plan (string_of_int in_horizon))));
          check int (plan count ^ ": reported") 2
            (List.length (Fault.Report.run (cfg (plan count))).r_cells))
        [
          ("1000000000", "100us", 301);
          (string_of_int max_int, "100us", 301);
          ("3", "3000000000000000000ns", 1);
        ])
    [ "irq-storm:irq=9"; "burst:tid=1" ];
  let storm =
    trace "irq-storm:irq=9,at=20ms,count=1000000000,spacing=100us"
  in
  check int "the storm's deliveries" 301
    (List.length
       (List.filter
          (fun (e : Sim.Trace.stamped) -> e.entry = Interrupt { irq = 9 })
          (Sim.Trace.entries storm)))

(* A duration's nanoseconds must fit in an int: the largest whole
   millisecond value parses and round-trips, the next is out of range
   (before, [v * mul] wrapped to another instant or a negative one). *)
let test_plan_duration_range () =
  let storm at =
    Printf.sprintf "irq-storm:irq=9,at=%s,count=1,spacing=1ms" at
  in
  (match Fault.Plan.parse (storm "4611686018427ms") with
  | Ok ([ Irq_storm { at; _ } ] as p) ->
    check int "largest ms value" 4_611_686_018_427_000_000 at;
    check bool "render/parse round-trip" true
      (Fault.Plan.parse (Fault.Plan.render p) = Ok p)
  | Ok _ | Error _ -> fail "4611686018427ms must parse");
  let contains hay needle =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun v ->
      check bool (v ^ " is out of range") true
        (match Fault.Plan.parse (storm v) with
        | Error m -> contains m "out of range"
        | Ok _ -> false))
    [ "4611686018428ms"; "5000000000000ms"; "10000000000000ms";
      "4611686018427388us"; "-4611686018428ms"; "99999999999999999999ns" ];
  check bool "a malformed value is not a duration" true
    (match Fault.Plan.parse (storm "12x") with
    | Error m -> contains m "not a duration"
    | Ok _ -> false)

(* Only the scenario knows its task ids: every clause that names a
   task must name one of them. *)
let test_plan_task_ids () =
  let sc = Workload.Scenario.overrun_demo () in
  let checked plan =
    match Fault.Plan.parse plan with
    | Ok p -> Fault.Inject.check_plan sc p
    | Error e -> fail e
  in
  check bool "known tids pass" true
    (checked "wcet-scale:tid=2,pct=400;irq-drop:irq=99,one-in=2" = Ok ());
  List.iter
    (fun plan ->
      check bool (plan ^ " refused") true (Result.is_error (checked plan)))
    [ "wcet-scale:tid=99,pct=400"; "wcet-add:tid=99,extra=1ms";
      "jitter:tid=99,amp=500us"; "burst:tid=99,at=20ms,count=3,spacing=1ms";
      "wcet-scale:tid=2,pct=400;burst:tid=0,at=1ms,count=1,spacing=1ms";
      (* fabric clauses, which a single-kernel run does not interpret *)
      "frame-drop:one-in=4"; "frame-corrupt:one-in=9";
      "node-crash:node=1,at=10ms"; "node-restart:node=1,at=80ms";
      "link-partition:a=0,b=1,from=1ms,until=5ms" ]

(* ------------------------------------------------------------------ *)
(* Values that would overflow after parsing *)

(* The draw is uniform in [-amp, amp], a span of 2 amp + 1: the widest
   amplitude whose span fits in an int runs, the next is refused (it
   used to fail an assertion in [Util.Rng.int_in]). *)
let test_jitter_amplitude_bound () =
  let plan amp =
    Fault.Plan.parse (Printf.sprintf "jitter:tid=1,amp=%dns" amp)
  in
  (match plan (max_int / 2) with
  | Ok plan ->
    let cfg =
      Fault.Inject.default_config ~scenario:(Workload.Scenario.overrun_demo ())
        ~plan ()
    in
    let k = (Fault.Inject.run cfg).kernel in
    check bool "the widest amplitude runs" true
      (Sim.Trace.length (Emeralds.Kernel.trace k) > 0)
  | Error e -> fail e);
  check bool "a wider one is refused" true
    (match plan ((max_int / 2) + 1) with
    | Error m -> String.ends_with ~suffix:"(got 2305843009213693952ns)" m
    | Ok _ -> false)

(* A demand fault whose arithmetic passes [max_int] sets the demand to
   [max_int]: it runs as a demand no horizon reaches, the same run as
   extra=1000s, where the wrapped demand used to read as no fault at
   all. *)
let demand_trace plan =
  match Fault.Plan.parse plan with
  | Ok plan ->
    Sim.Trace.signature
      (Emeralds.Kernel.trace
         (Fault.Inject.run
            (Fault.Inject.default_config
               ~scenario:(Workload.Scenario.overrun_demo ()) ~plan ()))
           .kernel)
  | Error e -> fail e

let test_demand_saturates plan () =
  check bool (plan ^ " runs as extra=1000s") true
    (demand_trace plan = demand_trace "wcet-add:tid=2,extra=1000s");
  check bool "which differs from the unfaulted run" false
    (demand_trace plan = demand_trace "")

let suite =
  [
    test_case "plan: render/parse round-trip" `Quick test_plan_roundtrip;
    test_case "plan: parse cases" `Quick test_plan_parse;
    test_case "plan: fabric clauses" `Quick test_plan_parse_fabric;
    test_case "empty plan differential" `Quick test_empty_plan_differential;
    test_case "policy: notify-only" `Quick test_policy_notify;
    test_case "policy: kill-job" `Quick test_policy_kill;
    test_case "policy: skip-next" `Quick test_policy_skip_next;
    test_case "policy: miss-kill" `Quick test_miss_kill;
    test_case "mem: live-block quota enforcement" `Quick test_mem_quota;
    test_case "shed: skip-over bound" `Quick test_shed_ratio;
    test_case "shed: graceful degradation" `Quick
      test_shedding_degrades_gracefully;
    test_case "report: clean demo" `Quick test_report_clean;
    test_case "report: detection and falsification" `Quick
      test_report_detects_and_falsifies;
    test_case "storms and bursts past the horizon" `Quick
      test_plans_past_horizon;
    test_case "plan: durations out of range" `Quick test_plan_duration_range;
    test_case "plan: task ids checked against the scenario" `Quick
      test_plan_task_ids;
    test_case "plan: jitter amplitude bounded" `Quick
      test_jitter_amplitude_bound;
    test_case "plan: wcet-add past max_int saturates" `Quick
      (test_demand_saturates "wcet-add:tid=2,extra=4611686018427387903ns");
    test_case "plan: wcet-scale past max_int saturates" `Quick
      (test_demand_saturates "wcet-scale:tid=2,pct=4611686018427387903");
  ]
