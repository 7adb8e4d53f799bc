(* Extensions beyond the core reproduction: sporadic arrivals, the
   cyclic-executive baseline, the ablation experiments' claims, and
   the services around them (sensitivity, task files, protection
   domains, IPC freshness, blocking terms, condition variables,
   user-level drivers, fieldbus nodes). *)

open Alcotest
open Emeralds

let ms = Model.Time.ms
let us = Model.Time.us

let task ?phase ?deadline id p c =
  Model.Task.make ?phase ?deadline ~id ~period:(ms p) ~wcet:(ms c) ()

let stat k tid =
  List.find (fun (s : Kernel.task_stats) -> s.tid = tid) (Kernel.stats k)

(* ------------------------------------------------------------------ *)
(* Sporadic arrivals *)

let test_sporadic_trigger () =
  let ts =
    Model.Taskset.of_list
      [
        task 1 20 5;
        (* sporadic: phase beyond the horizon, 50ms relative deadline *)
        task ~phase:(ms 100_000) ~deadline:(ms 50) 2 1000 2;
      ]
  in
  let k = Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts () in
  Kernel.trigger_job_at k ~at:(ms 7) ~tid:2;
  Kernel.trigger_job_at k ~at:(ms 43) ~tid:2;
  Kernel.run k ~until:(ms 100);
  let s = stat k 2 in
  check int "both sporadic jobs served" 2 s.jobs_completed;
  check int "no misses" 0 s.misses;
  (* deadline short (50ms) -> EDF serves it promptly even while tau1
     runs; response bounded by tau1 interference *)
  check bool "prompt response" true (s.max_response <= ms 10)

let test_sporadic_backlog () =
  let ts =
    Model.Taskset.of_list [ task ~phase:(ms 100_000) ~deadline:(ms 100) 1 1000 5 ]
  in
  let k = Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts () in
  (* two arrivals 1ms apart: the second queues while the first runs *)
  Kernel.trigger_job_at k ~at:(ms 1) ~tid:1;
  Kernel.trigger_job_at k ~at:(ms 2) ~tid:1;
  Kernel.run k ~until:(ms 50);
  check int "both served back to back" 2 (stat k 1).jobs_completed

(* ------------------------------------------------------------------ *)
(* Cyclic executive *)

let harmonic =
  Model.Taskset.of_list [ task 1 5 1; task 2 10 2; task 3 20 4 ]

let test_cyclic_generation () =
  match Analysis.Cyclic.generate harmonic with
  | None -> fail "harmonic workload must be table-able"
  | Some table ->
    check int "major cycle = hyperperiod" (ms 20) table.major_cycle;
    check int "minor frame = gcd" (ms 5) table.minor_frame;
    check (float 1e-6) "slot utilization = workload utilization"
      (Model.Taskset.utilization harmonic)
      (Analysis.Cyclic.utilization_of_slots table);
    (* slots tile the major cycle exactly *)
    let covered =
      List.fold_left
        (fun acc (s : Analysis.Cyclic.slot) -> acc + s.duration)
        0 table.slots
    in
    check int "slots tile the cycle" (ms 20) covered

let test_cyclic_infeasible () =
  let overloaded = Model.Taskset.of_list [ task 1 5 4; task 2 10 4 ] in
  check bool "overload yields no table" true
    (Analysis.Cyclic.generate overloaded = None)

let test_cyclic_table_blowup () =
  (* the paper's memory bullet: co-prime periods explode the table *)
  let rows = Experiments.Exp_cyclic.table_sizes () in
  let get prefix =
    List.find
      (fun (r : Experiments.Exp_cyclic.size_row) ->
        String.length r.workload >= String.length prefix
        && String.sub r.workload 0 (String.length prefix) = prefix)
      rows
  in
  let harmonic = get "harmonic" and coprime = get "co-prime" in
  check bool "co-prime table is orders of magnitude larger" true
    (coprime.table_bytes > 50 * harmonic.table_bytes);
  check bool "priority scheduler needs only queue nodes" true
    (coprime.kernel_queue_bytes < 100)

let test_cyclic_aperiodic_response () =
  (* the paper's response bullet: slack-served aperiodics are far
     slower than preemptive scheduling *)
  let rows = Experiments.Exp_cyclic.aperiodic_response () in
  List.iter
    (fun (r : Experiments.Exp_cyclic.response_row) ->
      match r.cyclic_worst_ms with
      | Some cyclic ->
        check bool "cyclic at least 5x slower" true (cyclic > 5. *. r.csd_worst_ms)
      | None -> ())
    rows

(* ------------------------------------------------------------------ *)
(* Ablations *)

let test_cost_scaling_preserves_orderings () =
  List.iter
    (fun (r : Experiments.Exp_ablation.scale_row) ->
      check bool
        (Printf.sprintf "CSD-3 >= EDF at %.1fx" r.factor)
        true (r.csd3 >= r.edf -. 0.02);
      check bool
        (Printf.sprintf "CSD-3 >= RM at %.1fx" r.factor)
        true (r.csd3 >= r.rm -. 0.02))
    (Experiments.Exp_ablation.cost_scaling ~workloads:6 ());
  (* heavier costs, lower breakdowns *)
  match Experiments.Exp_ablation.cost_scaling ~workloads:6 () with
  | [ half; one; two ] ->
    check bool "EDF monotone in cost" true (half.edf > one.edf && one.edf > two.edf)
  | _ -> fail "expected three scale rows"

let test_pi_scheme_ablation () =
  match Experiments.Exp_ablation.pi_scheme () with
  | [ std; eme ] ->
    check bool "EMERALDS saves switches" true (eme.switches < std.switches);
    check bool "EMERALDS saves overhead" true (eme.overhead_us < std.overhead_us);
    check int "standard meets deadlines" 0 std.misses;
    check int "EMERALDS meets deadlines" 0 eme.misses
  | _ -> fail "expected two schemes"

let test_csd_taper () =
  let rows = Experiments.Exp_ablation.csd_taper ~workloads:6 () in
  let get x =
    (List.find (fun (r : Experiments.Exp_ablation.taper_row) -> r.queues = x) rows)
      .breakdown
  in
  check bool "CSD-3 beats CSD-2" true (get 3 > get 2);
  (* the marginal gain shrinks: x=6 adds less than x=3 did *)
  check bool "gains taper" true (get 6 -. get 5 < get 3 -. get 2);
  ignore us

(* ------------------------------------------------------------------ *)
(* Sensitivity analysis *)

let test_sensitivity_headroom () =
  let ts = Model.Taskset.of_list [ task 1 10 2; task 2 20 4 ] in
  let rooms =
    Analysis.Sensitivity.per_task ~cost:Sim.Cost.zero ~spec:Sched.Edf ts
  in
  List.iter
    (fun (h : Analysis.Sensitivity.headroom) ->
      check bool "headroom above 1x" true (h.scale >= 1.0);
      check bool "max wcet within deadline" true
        (h.max_wcet <= (Model.Taskset.get ts (h.task_id - 1)).deadline);
      (* growing to max_wcet must still be feasible *)
      let grown =
        Model.Taskset.map
          (fun (t : Model.Task.t) ->
            if t.id = h.task_id then Model.Task.with_wcet t h.max_wcet else t)
          ts
      in
      check bool "max wcet is feasible" true
        (Analysis.Feasibility.feasible ~cost:Sim.Cost.zero ~spec:Sched.Edf grown))
    rooms;
  (* U = 0.4: tau1 can grow until U hits 1.0 -> c1_max = (1 - 0.2) * 10 = 8 *)
  let h1 = List.hd rooms in
  check bool "tau1 headroom near 4x" true (h1.scale > 3.9 && h1.scale <= 4.01)

let test_sensitivity_infeasible () =
  let ts = Model.Taskset.of_list [ task 1 10 8; task 2 20 8 ] in
  let rooms =
    Analysis.Sensitivity.per_task ~cost:Sim.Cost.zero ~spec:Sched.Rm ts
  in
  List.iter
    (fun (h : Analysis.Sensitivity.headroom) ->
      check (float 1e-9) "infeasible set has zero headroom" 0.0 h.scale)
    rooms

let test_sensitivity_bottleneck () =
  let ts = Model.Taskset.of_list [ task 1 10 2; task 2 100 60 ] in
  match Analysis.Sensitivity.bottleneck ~cost:Sim.Cost.zero ~spec:Sched.Edf ts with
  | Some b -> check int "the loaded task is the bottleneck" 2 b.task_id
  | None -> fail "expected a bottleneck"

(* ------------------------------------------------------------------ *)
(* Task-set spec files *)

let test_spec_file_roundtrip () =
  let text =
    "# engine\n\
     task 1 period=5ms wcet=900us name=injection\n\
     task 2 period=20ms wcet=2.5ms deadline=15ms blocking=1\n\
     \n\
     task 3 period=1s wcet=15ms phase=100ms # trailing comment\n"
  in
  match Workload.Spec_file.parse text with
  | Error msg -> fail msg
  | Ok ts ->
    check int "three tasks" 3 (Model.Taskset.size ts);
    let t1 = Model.Taskset.get ts 0 in
    check int "t1 period" (ms 5) t1.period;
    check int "t1 wcet" (us 900) t1.wcet;
    check string "t1 name" "injection" t1.name;
    let t2 = Model.Taskset.get ts 1 in
    check int "t2 deadline" (ms 15) t2.deadline;
    check int "t2 blocking" 1 t2.blocking_calls;
    let t3 = Model.Taskset.get ts 2 in
    check int "t3 phase" (ms 100) t3.phase;
    (* round trip *)
    (match Workload.Spec_file.parse (Workload.Spec_file.to_string ts) with
    | Ok ts2 ->
      check int "round-trip size" 3 (Model.Taskset.size ts2);
      Array.iteri
        (fun i (t : Model.Task.t) ->
          let t' = Model.Taskset.get ts2 i in
          check int "period survives" t.period t'.period;
          check int "wcet survives" t.wcet t'.wcet;
          check int "deadline survives" t.deadline t'.deadline)
        (Model.Taskset.tasks ts)
    | Error msg -> fail msg)

let test_spec_file_process_attr () =
  let text = "task 1 period=10ms wcet=1ms process=7\ntask 2 period=20ms wcet=1ms process=7\n" in
  match Workload.Spec_file.parse text with
  | Error msg -> fail msg
  | Ok ts ->
    check int "t1 process" 7 (Model.Taskset.get ts 0).process;
    check int "t2 process" 7 (Model.Taskset.get ts 1).process;
    (* survives the roundtrip *)
    (match Workload.Spec_file.parse (Workload.Spec_file.to_string ts) with
    | Ok ts2 -> check int "roundtrip process" 7 (Model.Taskset.get ts2 0).process
    | Error msg -> fail msg)

let test_spec_file_errors () =
  let expect_error text =
    match Workload.Spec_file.parse text with
    | Error _ -> ()
    | Ok _ -> fail ("expected a parse error for: " ^ text)
  in
  expect_error "";
  expect_error "task 1 wcet=1ms\n";
  expect_error "task 1 period=10ms\n";
  expect_error "task x period=10ms wcet=1ms\n";
  expect_error "task 1 period=10ms wcet=20ms\n" (* wcet > deadline *);
  expect_error "task 1 period=10ms wcet=1ms bogus=3\n";
  expect_error "job 1 period=10ms wcet=1ms\n";
  expect_error "task 1 period=-10ms wcet=1ms\n"

(* the key=value reader both task files and fault plans use *)
let test_duration_parsing () =
  let ok s expected =
    match Model.Kv.dur "period" s with
    | Ok v -> check int s expected v
    | Error msg -> fail msg
  in
  ok "250ns" 250;
  ok "1.5us" 1_500;
  ok "2ms" (ms 2);
  ok "0.5s" (ms 500);
  ok "12345" 12_345;
  check bool "garbage rejected" true
    (Result.is_error (Model.Kv.dur "period" "fast"))

(* ------------------------------------------------------------------ *)
(* Protection domains *)

let test_process_switch_cost () =
  (* identical workloads; one groups every thread into a single
     process, the other isolates each — the isolated build pays an
     address-space switch on every context switch *)
  let build ~shared =
    let ts =
      Model.Taskset.of_list
        (List.init 4 (fun i ->
             Model.Task.make
               ?process:(if shared then Some 1 else None)
               ~id:(i + 1)
               ~period:(ms (10 + (5 * i)))
               ~wcet:(ms 2) ()))
    in
    let k = Kernel.create ~cost:Sim.Cost.m68040 ~spec:Sched.Edf ~taskset:ts () in
    Kernel.run k ~until:(ms 500);
    Kernel.trace k
  in
  let shared = build ~shared:true and isolated = build ~shared:false in
  check int "same schedule" (Sim.Trace.context_switches shared)
    (Sim.Trace.context_switches isolated);
  check bool "isolation costs address-space switches" true
    (Sim.Trace.overhead_total isolated > Sim.Trace.overhead_total shared);
  let as_cost trace =
    match List.assoc_opt "switch.as" (Sim.Trace.overhead_by_category trace) with
    | Some c -> c
    | None -> 0
  in
  check int "no domain crossings in one process" 0 (as_cost shared);
  check bool "every cross-process switch charged" true (as_cost isolated > 0)

(* ------------------------------------------------------------------ *)
(* IPC freshness *)

let test_ipc_freshness () =
  match Experiments.Exp_ipc.measure_freshness () with
  | [ state; mailbox ] ->
    check bool "state data stays fresh (< one writer period + jitter)" true
      (state.max_age_ms < 11.0);
    check bool "mailbox data goes stale" true
      (mailbox.mean_age_ms > 5.0 *. state.mean_age_ms)
  | _ -> fail "expected two mechanisms"

(* ------------------------------------------------------------------ *)
(* Blocking-aware analysis *)

let test_blocking_terms () =
  (* ranks 0,1,2; sem A shared by ranks 0 and 2; sem B only rank 1&2 *)
  let css =
    Analysis.Blocking.
      [
        { task_rank = 0; sem = 1; duration = 100; nested = []; chained = [] };
        { task_rank = 2; sem = 1; duration = 700; nested = []; chained = [] };
        { task_rank = 1; sem = 2; duration = 300; nested = []; chained = [] };
        { task_rank = 2; sem = 2; duration = 400; nested = []; chained = [] };
      ]
  in
  let b = Analysis.Blocking.blocking_terms ~n:3 css in
  (* rank 0: lower tasks' CSs on sems used at/above rank 0: sem 1 by
     rank 2 (700).  sem 2 is not used at rank 0, so 400 doesn't count. *)
  check int "B0" 700 b.(0);
  (* rank 1: sem1(rank2,700) blocks it? sem 1 used at rank 0 <= 1: yes;
     sem2(rank2,400) used at rank 1: yes -> max 700 *)
  check int "B1" 700 b.(1);
  (* rank 2: nothing lower *)
  check int "B2" 0 b.(2)

let test_blocking_rta () =
  let tasks = [| (ms 10, ms 10, ms 2); (ms 20, ms 20, ms 4) |] in
  let no_blocking = [| 0; 0 |] in
  let heavy = [| ms 9; 0 |] in
  check bool "feasible without blocking" true
    (Analysis.Rta.feasible ~blocking:no_blocking tasks);
  check bool "infeasible with a 9ms blocking term" false
    (Analysis.Rta.feasible ~blocking:heavy tasks);
  check (option int) "response includes blocking"
    (Some (ms 5))
    (Analysis.Rta.response_time ~blocking:[| ms 3; 0 |] ~tasks 0)

(* ------------------------------------------------------------------ *)
(* Condition variables *)

let test_condvar_object () =
  let mutex = Objects.sem ~kind:Types.Emeralds () in
  let cv = Objects.waitq () in
  let ts =
    Model.Taskset.of_list [ task 1 50 2; task ~phase:(ms 10) 2 50 2 ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    if t.id = 1 then
      (acquire mutex :: condition_wait cv mutex)
      @ [ compute (ms 1); release mutex ]
    else [ acquire mutex; compute (ms 1); signal cv; release mutex ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:ts ~programs ()
  in
  Kernel.run k ~until:(ms 50);
  check int "waiter completed" 1 (stat k 1).jobs_completed;
  check int "signaller completed" 1 (stat k 2).jobs_completed

let test_condvar_broadcast () =
  let mutex = Objects.sem () in
  let cv = Objects.waitq () in
  let ts =
    Model.Taskset.of_list
      [ task 1 100 1; task 2 100 1; task ~phase:(ms 5) 3 100 1 ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    if t.id = 3 then
      [ acquire mutex; broadcast cv; release mutex; compute (ms 1) ]
    else (acquire mutex :: condition_wait cv mutex) @ [ release mutex ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:ts ~programs ()
  in
  Kernel.run k ~until:(ms 100);
  List.iter
    (fun tid ->
      check int (Printf.sprintf "tau%d woke" tid) 1 (stat k tid).jobs_completed)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* User-level device drivers *)

let test_driver_pattern () =
  let captured = ref 0 in
  let ts =
    Model.Taskset.of_list
      [ Model.Task.make ~id:1 ~period:(ms 10) ~deadline:(ms 50) ~wcet:(ms 1) () ]
  in
  let k = Kernel.create ~cost:Sim.Cost.m68040 ~spec:Sched.Edf ~taskset:ts () in
  let drv = Driver.attach k ~irq:9 ~capture:(fun () -> incr captured) () in
  let t1 = Kernel.tcb k ~tid:1 in
  t1.Types.program <-
    [| Driver.wait_for_interrupt drv; Program.compute (ms 1) |];
  t1.Types.hints <- Program.derive_hints t1.Types.program;
  List.iter (fun t -> Driver.raise_at drv ~at:(ms t)) [ 3; 13; 23 ];
  Kernel.run k ~until:(ms 60);
  check int "three interrupts" 3 (Driver.interrupts_serviced drv);
  check int "capture ran in interrupt context" 3 !captured;
  check int "driver thread served each" 3 (stat k 1).jobs_completed

(* ------------------------------------------------------------------ *)
(* Fieldbus nodes *)

let test_node_glue () =
  let engine = Sim.Engine.create () in
  let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
  let sensor = Fieldbus.Node.create ~bus ~id:0 () in
  let ctrl_node = Fieldbus.Node.create ~bus ~id:1 () in
  let ts =
    Model.Taskset.of_list
      [ Model.Task.make ~id:1 ~period:(ms 10) ~deadline:(ms 50) ~wcet:(ms 1) () ]
  in
  let k = Kernel.create ~engine ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts () in
  let sample = State_msg.create ~depth:3 ~words:2 in
  let drv = Driver.attach k ~irq:2 () in
  let t1 = Kernel.tcb k ~tid:1 in
  t1.Types.program <-
    [| Driver.wait_for_interrupt drv; Program.state_read sample;
       Program.compute (ms 1) |];
  t1.Types.hints <- Program.derive_hints t1.Types.program;
  Fieldbus.Node.deliver_to_kernel ctrl_node ~kernel:k ~irq:2
    ~accept:(fun f -> f.Fieldbus.Bus.frame_id = 0x11)
    ~capture:(fun f -> State_msg.write sample f.Fieldbus.Bus.payload)
    ();
  Fieldbus.Node.send_at sensor ~at:(ms 2) ~frame_id:0x11 [| 41; 42 |];
  Fieldbus.Node.send_at sensor ~at:(ms 12) ~frame_id:0x99 [| 0; 0 |];
  Fieldbus.Node.send_at sensor ~at:(ms 22) ~frame_id:0x11 [| 43; 44 |];
  Sim.Engine.run_until engine (ms 60);
  check int "only matching frames delivered" 2 (Driver.interrupts_serviced drv);
  check int "sensor sent three" 3 (Fieldbus.Node.frames_sent sensor);
  check (array int) "latest payload published" [| 43; 44 |] (State_msg.read sample);
  check int "driver thread served both" 2 (stat k 1).jobs_completed

let suite =
  [
    test_case "sporadic: trigger" `Quick test_sporadic_trigger;
    test_case "sporadic: backlog" `Quick test_sporadic_backlog;
    test_case "cyclic: table generation" `Quick test_cyclic_generation;
    test_case "cyclic: infeasible workloads" `Quick test_cyclic_infeasible;
    test_case "cyclic: co-prime table blow-up" `Quick test_cyclic_table_blowup;
    test_case "cyclic: aperiodic response gap" `Quick test_cyclic_aperiodic_response;
    test_case "ablation: cost scaling" `Slow test_cost_scaling_preserves_orderings;
    test_case "ablation: PI scheme end to end" `Quick test_pi_scheme_ablation;
    test_case "ablation: CSD-x taper" `Slow test_csd_taper;
    test_case "sensitivity: headroom" `Quick test_sensitivity_headroom;
    test_case "sensitivity: infeasible" `Quick test_sensitivity_infeasible;
    test_case "sensitivity: bottleneck" `Quick test_sensitivity_bottleneck;
    test_case "spec file: roundtrip" `Quick test_spec_file_roundtrip;
    test_case "spec file: errors" `Quick test_spec_file_errors;
    test_case "spec file: process attribute" `Quick test_spec_file_process_attr;
    test_case "spec file: durations" `Quick test_duration_parsing;
    test_case "protection domains" `Quick test_process_switch_cost;
    test_case "ipc freshness" `Quick test_ipc_freshness;
    test_case "blocking terms" `Quick test_blocking_terms;
    test_case "blocking-aware RTA" `Quick test_blocking_rta;
    test_case "condvar object" `Quick test_condvar_object;
    test_case "condvar broadcast" `Quick test_condvar_broadcast;
    test_case "user-level driver pattern" `Quick test_driver_pattern;
    test_case "fieldbus node glue" `Quick test_node_glue;
  ]
