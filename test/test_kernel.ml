(* Kernel execution semantics: job lifecycle, preemption, overheads,
   deadline handling, timers, interrupts — everything except the
   semaphore/IPC protocols, which get their own suites. *)

open Alcotest
open Emeralds

let qtest ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms
let us = Model.Time.us

let taskset l = Model.Taskset.of_list l
let task ?phase ?deadline id p c =
  Model.Task.make ?phase ?deadline ~id ~period:(ms p) ~wcet:(ms c) ()

let run ?programs ?(cost = Sim.Cost.zero) ?(spec = Sched.Edf) ts ~until =
  let k = Kernel.create ?programs ~cost ~spec ~taskset:ts () in
  Kernel.run k ~until;
  k

let stat k tid =
  List.find (fun (s : Kernel.task_stats) -> s.tid = tid) (Kernel.stats k)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let test_single_task () =
  let k = run (taskset [ task 1 10 2 ]) ~until:(ms 100) in
  let s = stat k 1 in
  check int "ten jobs" 10 s.jobs_completed;
  check int "no misses" 0 s.misses;
  check int "response = wcet" (ms 2) s.max_response;
  check int "busy time" (ms 20) (Sim.Trace.busy_time (Kernel.trace k))

let test_phase_offsets () =
  let ts = taskset [ task ~phase:(ms 5) 1 10 1 ] in
  let k = run ts ~until:(ms 10) in
  let entries = Sim.Trace.entries (Kernel.trace k) in
  let release_at =
    List.find_map
      (fun (s : Sim.Trace.stamped) ->
        match s.entry with Job_release _ -> Some s.at | _ -> None)
      entries
  in
  check (option int) "first release at the phase" (Some (ms 5)) release_at

let test_preemption () =
  (* tau1 preempts tau2; tau2's first job finishes at 8ms (see §5.2's
     style of analysis: R2 = 4 + 2*2). *)
  let k = run ~spec:Sched.Rm (taskset [ task 1 5 2; task 2 7 4 ]) ~until:(ms 8) in
  let s2 = stat k 2 in
  check int "tau2 completed once" 1 s2.jobs_completed;
  check int "tau2 response" (ms 8) s2.max_response;
  check bool "a preemption happened" true
    (Sim.Trace.preemptions (Kernel.trace k) >= 1)

let test_deadline_miss_detection () =
  let k = run ~spec:Sched.Rm (taskset [ task 1 5 2; task 2 7 4 ]) ~until:(ms 8) in
  check int "tau2 misses its 7ms deadline" 1 (stat k 2).misses

(* Two tasks whose first jobs both blow the same deadline instant: the
   miss probes fire at the same virtual time, in release (FIFO) order,
   so both misses count and [first_miss] names the earlier-released
   task. *)
let test_simultaneous_miss_tie () =
  let ts = taskset [ task ~deadline:(ms 2) 1 10 1; task ~deadline:(ms 2) 2 10 1 ] in
  let programs _ = [ Program.compute (ms 5) ] in
  let tr = Kernel.trace (run ~programs ~spec:Sched.Rm ts ~until:(ms 10)) in
  check bool "both misses recorded" true (Sim.Trace.deadline_misses tr >= 2);
  match Sim.Trace.first_miss tr with
  | Some { at; entry = Sim.Trace.Deadline_miss { tid; _ } } ->
    check int "probe fires just past the deadline" (ms 2 + 1) at;
    check int "FIFO tie goes to the earlier release" 1 tid
  | Some _ | None -> fail "first_miss missing"

let test_overrun_backlog () =
  (* A single task whose job takes longer than its period: releases
     queue up and are served back-to-back, each missing. *)
  let programs (t : Model.Task.t) = [ Program.compute (Model.Time.mul t.period 2) ] in
  let ts = taskset [ task 1 10 5 ] in
  let k = run ~programs ts ~until:(ms 100) in
  let s = stat k 1 in
  check bool "some jobs completed" true (s.jobs_completed >= 4);
  check bool "misses recorded" true (s.misses >= 4)

let test_idle_gaps () =
  let k = run (taskset [ task 1 100 1 ]) ~until:(ms 1000) in
  check int "busy only 10ms" (ms 10) (Sim.Trace.busy_time (Kernel.trace k))

(* ------------------------------------------------------------------ *)
(* Table 2 under every scheduler (zero-cost: pure policy) *)

let test_table2_policies () =
  let expectations =
    [
      (Sched.Rm, true);
      (Sched.Rm_heap, true);
      (Sched.Edf, false);
      (Sched.Csd [ 5 ], false);
      (Sched.Csd [ 2; 3 ], false);
    ]
  in
  List.iter
    (fun (spec, should_miss) ->
      let k = run ~spec Workload.Presets.table2 ~until:(ms 2520) in
      let missed = Kernel.total_misses k > 0 in
      check bool (Sched.spec_name spec) should_miss missed;
      if should_miss then begin
        (* specifically tau5, at its first 8ms deadline (Figure 2) *)
        match Sim.Trace.first_miss (Kernel.trace k) with
        | Some { at; entry = Deadline_miss { tid; _ } } ->
          check int "tau5 is the troublesome task" 5 tid;
          (* the miss is recorded 1ns past the deadline boundary *)
          check int "at 8ms" (ms 8 + 1) at
        | _ -> fail "expected a first miss"
      end)
    expectations

(* ------------------------------------------------------------------ *)
(* Overheads *)

let test_overhead_charging () =
  let ts = taskset [ task 1 10 2; task 2 20 4 ] in
  let k = run ~cost:Sim.Cost.m68040 ts ~until:(ms 200) in
  let tr = Kernel.trace k in
  check bool "overhead accrued" true (Sim.Trace.overhead_total tr > 0);
  let categories = List.map fst (Sim.Trace.overhead_by_category tr) in
  List.iter
    (fun c -> check bool ("category " ^ c) true (List.mem c categories))
    [ "sched.block"; "sched.select"; "sched.unblock"; "switch" ];
  (* busy time unchanged by overhead: all jobs still complete *)
  check int "all work done" (ms (40 + 40)) (Sim.Trace.busy_time tr)

let test_overhead_delays_completion () =
  let ts = taskset [ task 1 10 2 ] in
  let free = run ~cost:Sim.Cost.zero ts ~until:(ms 10) in
  let charged = run ~cost:Sim.Cost.m68040 ts ~until:(ms 10) in
  let r0 = (stat free 1).max_response in
  let r1 = (stat charged 1).max_response in
  check bool "overhead lengthens response" true (r1 > r0)

let test_zero_cost_idle_cpu_conservation () =
  (* busy + idle = horizon when overheads are zero *)
  let ts = taskset [ task 1 10 3; task 2 20 5 ] in
  let k = run ts ~until:(ms 200) in
  check int "busy = demand" (ms ((3 * 20) + (5 * 10)))
    (Sim.Trace.busy_time (Kernel.trace k))

(* ------------------------------------------------------------------ *)
(* Charge conformance: what the kernel charges at each call, against
   [Charge]'s [lo, hi] under m68040 costs *)

(* Task [tid]'s per-call charges, in execution order: the Overhead
   entries charged while it holds the CPU, leaving out the scheduler
   and context-switch categories (the §5.1 terms, not the call's), and
   grouped by instant.  The programs below separate their kernel calls
   with computes, so each instant is exactly one call. *)
let call_charges k ~tid =
  let running = ref None and groups = ref [] in
  List.iter
    (fun (s : Sim.Trace.stamped) ->
      match s.entry with
      | Context_switch { to_tid; _ } -> running := to_tid
      | Overhead
          {
            category =
              ( Ovh_sched_select | Ovh_sched_block | Ovh_sched_unblock
              | Ovh_sched_demote | Ovh_switch | Ovh_switch_as );
            _;
          } ->
        ()
      | Overhead { cost; _ } when !running = Some tid -> (
        match !groups with
        | (at, sum) :: rest when at = s.at -> groups := (at, sum + cost) :: rest
        | gs -> groups := (s.at, cost) :: gs)
      | _ -> ())
    (Sim.Trace.entries (Kernel.trace k));
  List.rev_map snd !groups

(* Run [programs] (tau1 outranks tau2) for one job each and check each
   listed task's calls: every charge lies in [lo, hi] and hits the
   stated end of the path the scenario drives it down. *)
let check_charges name programs expected =
  let cost = Sim.Cost.m68040 in
  let programs (t : Model.Task.t) = programs t.id in
  let k =
    run ~cost ~spec:Sched.Rm ~programs
      (taskset [ task 1 10 1; task 2 20 1 ])
      ~until:(ms 5)
  in
  List.iter
    (fun (tid, calls) ->
      let observed = call_charges k ~tid in
      let label = Printf.sprintf "%s: tau%d call %s" name tid in
      check int (label "count") (List.length calls) (List.length observed);
      List.iteri
        (fun i ((call, words, end_), got) ->
          let lo = Charge.lo cost call ~words
          and hi = Charge.hi cost call ~words in
          let label what = label (Printf.sprintf "%d %s" i what) in
          check bool (label "in [lo, hi]") true (lo <= got && got <= hi);
          check int (label "at its end")
            (match end_ with `Lo -> lo | `Hi -> hi)
            got)
        (List.combine calls observed))
    expected

let test_charge_conformance () =
  let open Program in
  let gap = compute (us 10) in
  let idle = [ gap ] in
  let s = Objects.sem () and wq = Objects.waitq () in
  let mb = Objects.mailbox ~capacity:2 () in
  let sm = State_msg.create ~depth:3 ~words:4 in
  let pool = Objects.pool ~block_bytes:32 ~capacity:1 () in
  check_charges "acquire/release"
    (function 1 -> [ acquire s; gap; release s ] | _ -> idle)
    [ (1, [ (Charge.Sem, 0, `Hi); (Charge.Sem, 0, `Hi) ]) ];
  (* a signal on an empty queue stays pending (a broadcast does not):
     the next wait, timed or not, completes on the spot *)
  check_charges "waits with a signal pending"
    (function
      | 1 ->
        [ broadcast wq; gap; signal wq; gap; wait wq; gap; signal wq; gap;
          timed_wait wq (ms 1) ]
      | _ -> idle)
    [
      ( 1,
        [
          (Charge.Signal, 0, `Hi); (Charge.Signal, 0, `Hi);
          (Charge.Wait, 0, `Lo); (Charge.Signal, 0, `Hi);
          (Charge.Timed_wait, 0, `Lo);
        ] );
    ];
  (* blocking: tau1's wait is signalled by tau2, its timed wait times
     out, and tau2 wakes it with a signal and then a broadcast *)
  check_charges "blocking waits"
    (function
      | 1 -> [ wait wq; gap; timed_wait wq (us 100); gap; wait wq ]
      | _ -> [ compute (us 50); signal wq; compute (us 500); broadcast wq ])
    [
      ( 1,
        [
          (Charge.Wait, 0, `Hi); (Charge.Timed_wait, 0, `Hi);
          (Charge.Wait, 0, `Hi);
        ] );
      (2, [ (Charge.Signal, 0, `Hi); (Charge.Signal, 0, `Hi) ]);
    ];
  (* a receive from the queue pays the copy; one completed by the
     sender's hand-off pays only the admin floor *)
  check_charges "send and receive from the queue"
    (function 1 -> [ send mb (words 3); gap; recv mb ] | _ -> idle)
    [ (1, [ (Charge.Send, 3, `Hi); (Charge.Recv, 3, `Hi) ]) ];
  check_charges "receive by hand-off"
    (function 1 -> [ recv mb ] | _ -> [ compute (us 50); send mb (words 3) ])
    [ (1, [ (Charge.Recv, 3, `Lo) ]); (2, [ (Charge.Send, 3, `Hi) ]) ];
  check_charges "state messages"
    (function 1 -> [ state_write sm (words 4); gap; state_read sm ] | _ -> idle)
    [ (1, [ (Charge.State_write, 4, `Hi); (Charge.State_read, 4, `Hi) ]) ];
  check_charges "delay"
    (function 1 -> [ delay (us 100) ] | _ -> idle)
    [ (1, [ (Charge.Delay, 0, `Hi) ]) ];
  (* a one-block pool: grant, denial, free — the same charge each way *)
  check_charges "alloc and free"
    (function 1 -> [ alloc pool; gap; alloc pool; gap; free pool ] | _ -> idle)
    [ (1, [ (Charge.Pool, 0, `Hi); (Charge.Pool, 0, `Hi); (Charge.Pool, 0, `Hi) ]) ];
  check int "the second alloc was denied" 1 pool.Types.pool_failures

(* ------------------------------------------------------------------ *)
(* Timers, delays, interrupts *)

let test_delay_instruction () =
  let ts = taskset [ task 1 100 1 ] in
  let programs _ = Program.[ compute (ms 1); delay (ms 7); compute (ms 2) ] in
  let k = run ~programs ts ~until:(ms 100) in
  let s = stat k 1 in
  check int "job completes" 1 s.jobs_completed;
  check int "response includes the sleep" (ms 10) s.max_response

let test_interrupt_wakes_task () =
  let event = Objects.waitq () in
  let ts = taskset [ task 1 100 1 ] in
  let programs _ = Program.[ wait event; compute (ms 1) ] in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts ~programs ()
  in
  Kernel.register_irq k ~irq:5 ~signals:[ event ]
    ~handler:(fun () -> Kernel.signal_waitq k event)
    ();
  Kernel.raise_irq_at k ~at:(ms 30) ~irq:5;
  Kernel.run k ~until:(ms 100);
  let s = stat k 1 in
  check int "one job" 1 s.jobs_completed;
  check int "finished right after the irq" (ms 31) s.max_response;
  let irqs =
    List.filter
      (fun (s : Sim.Trace.stamped) ->
        match s.entry with Interrupt _ -> true | _ -> false)
      (Sim.Trace.entries (Kernel.trace k))
  in
  check int "irq traced" 1 (List.length irqs)

let test_duplicate_irq_rejected () =
  let ts = taskset [ task 1 100 1 ] in
  let k = Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts () in
  Kernel.register_irq k ~irq:1 ~handler:(fun () -> ()) ();
  check bool "duplicate rejected" true
    (try
       Kernel.register_irq k ~irq:1 ~handler:(fun () -> ()) ();
       false
     with Invalid_argument _ -> true)

let test_irq_preempts_computation () =
  (* interrupt entry cost delays the running thread *)
  let ts = taskset [ task 1 100 10 ] in
  let k =
    Kernel.create ~cost:Sim.Cost.m68040 ~spec:Sched.Edf ~taskset:ts ()
  in
  Kernel.register_irq k ~irq:2 ~handler:(fun () -> ()) ();
  Kernel.raise_irq_at k ~at:(ms 3) ~irq:2;
  Kernel.run k ~until:(ms 100);
  let with_irq = (stat k 1).max_response in
  let k2 = run ~cost:Sim.Cost.m68040 ts ~until:(ms 100) in
  check bool "irq lengthened the response" true
    (with_irq > (stat k2 1).max_response)

(* ------------------------------------------------------------------ *)
(* Property: EDF optimality and RTA agreement on random workloads *)

(* Periods drawn from divisors of 40ms keep hyperperiods tiny. *)
let gen_small_taskset =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* periods = list_repeat n (oneofl [ 4; 5; 8; 10; 20; 40 ]) in
    let* permille = list_repeat n (int_range 10 400) in
    let tasks =
      List.mapi
        (fun i (p, m) ->
          let wcet = max 1 (ms p * m / 1000) in
          Model.Task.make ~id:(i + 1) ~period:(ms p) ~wcet ())
        (List.combine periods permille)
    in
    return (Model.Taskset.of_list tasks))

let prop_schedule_is_hyperperiodic =
  qtest ~count:40 "zero-cost synchronous schedules repeat each hyperperiod"
    gen_small_taskset (fun ts ->
      (* Strictly less than 1: at full utilization the processor never
         idles, so the task completing exactly at the hyperperiod
         boundary carries over as the incumbent and the EDF list scan
         can break the boundary's deadline ties differently from t=0 —
         the schedule is then cyclic with some multiple of the
         hyperperiod, not the hyperperiod itself.  An idle instant
         before each boundary resets the queue state and makes the
         classic repetition theorem apply verbatim. *)
      QCheck2.assume (Model.Taskset.utilization ts < 1.0);
      let hyper = Model.Taskset.hyperperiod ts in
      QCheck2.assume (hyper <= ms 40);
      let k = run ~spec:Sched.Edf ts ~until:(Model.Time.mul hyper 3) in
      let tr = Kernel.trace k in
      Array.for_all
        (fun (t : Model.Task.t) ->
          let rs = Array.of_list (Sim.Trace.responses tr ~tid:t.id) in
          let jobs_per_hyper = hyper / t.period in
          let ok = ref true in
          Array.iteri
            (fun j r ->
              if j + jobs_per_hyper < Array.length rs then
                ok := !ok && rs.(j + jobs_per_hyper) = r)
            rs;
          !ok)
        (Model.Taskset.tasks ts))

let prop_edf_optimal =
  qtest "U <= 1 -> EDF misses nothing (zero overhead)" gen_small_taskset
    (fun ts ->
      QCheck2.assume (Model.Taskset.utilization ts <= 1.0);
      let k = run ~spec:Sched.Edf ts ~until:(ms 80) in
      Kernel.total_misses k = 0)

let prop_rta_agrees_with_simulation =
  qtest "RTA-feasible -> RM simulation misses nothing" gen_small_taskset
    (fun ts ->
      let rows =
        Array.map
          (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
          (Model.Taskset.tasks ts)
      in
      QCheck2.assume (Analysis.Rta.feasible rows);
      let k = run ~spec:Sched.Rm ts ~until:(ms 80) in
      Kernel.total_misses k = 0)

let prop_rta_tight =
  qtest "RTA-infeasible -> RM simulation misses (implicit deadlines)"
    gen_small_taskset (fun ts ->
      let rows =
        Array.map
          (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
          (Model.Taskset.tasks ts)
      in
      QCheck2.assume (not (Analysis.Rta.feasible rows));
      (* exact test + synchronous release = worst case occurs in the
         first busy period *)
      let k = run ~spec:Sched.Rm ts ~until:(ms 80) in
      Kernel.total_misses k > 0)

let prop_analysis_feasible_implies_sim_clean =
  qtest "overhead-aware CSD analysis -> simulation meets deadlines"
    gen_small_taskset (fun ts ->
      (* The analysis covers the §5.1 scheduling-op model (at the 1.5x
         blocking-call factor); zero the costs it does not model so the
         implication is exact. *)
      let cost =
        { Sim.Cost.m68040 with context_switch = 0; syscall_entry = 0 }
      in
      let spec = Sched.Csd [ 2 ] in
      QCheck2.assume (Model.Taskset.size ts >= 3);
      QCheck2.assume (Analysis.Feasibility.feasible ~cost ~spec ts);
      let k = run ~cost ~spec ts ~until:(ms 80) in
      Kernel.total_misses k = 0)

(* U = 1 exactly.  At 20 ms tau4's fifth release fires just before its
   fourth job completes at the same instant, so the release queues
   behind the job.  The job's exit must let EDF choose: tau4#5 (deadline
   25 ms) may not run ahead of tau1-3's jobs due at 24 ms. *)
let test_edf_queued_release_reselects () =
  let task id p c = Model.Task.make ~id ~period:(ms p) ~wcet:(us c) () in
  let ts = taskset [ task 1 4 324; task 2 4 692; task 3 4 1544; task 4 5 1800 ] in
  let k = run ~spec:Sched.Edf ts ~until:(ms 80) in
  check int "no misses" 0 (Kernel.total_misses k)

let suite =
  [
    test_case "single task lifecycle" `Quick test_single_task;
    test_case "phase offsets" `Quick test_phase_offsets;
    test_case "preemption accounting" `Quick test_preemption;
    test_case "deadline miss detection" `Quick test_deadline_miss_detection;
    (* in a removed case's slot, so the cases after it keep their
       printed index *)
    test_case "EDF: a queued release re-selects at job exit" `Quick
      test_edf_queued_release_reselects;
    test_case "simultaneous miss tie" `Quick test_simultaneous_miss_tie;
    test_case "overrun backlog" `Quick test_overrun_backlog;
    test_case "idle gaps" `Quick test_idle_gaps;
    test_case "Table 2 policies" `Quick test_table2_policies;
    test_case "overhead charging" `Quick test_overhead_charging;
    test_case "overhead delays completion" `Quick test_overhead_delays_completion;
    test_case "cpu conservation" `Quick test_zero_cost_idle_cpu_conservation;
    test_case "delay instruction" `Quick test_delay_instruction;
    test_case "interrupt wakes task" `Quick test_interrupt_wakes_task;
    test_case "duplicate irq rejected" `Quick test_duplicate_irq_rejected;
    test_case "irq delays computation" `Quick test_irq_preempts_computation;
    prop_schedule_is_hyperperiodic;
    prop_edf_optimal;
    prop_rta_agrees_with_simulation;
    prop_rta_tight;
    prop_analysis_feasible_implies_sim_clean;
    test_case "per-call charges conform to Charge" `Quick test_charge_conformance;
  ]
