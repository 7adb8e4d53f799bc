(* Off-line schedulability: RTA, the demand criterion, the CSD test,
   the overhead model, partition search, and breakdown utilization. *)

open Alcotest

let qtest ?(count = 80) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms
let cost = Sim.Cost.m68040

let task id p c = Model.Task.make ~id ~period:(ms p) ~wcet:(ms c) ()

(* ------------------------------------------------------------------ *)
(* RTA *)

let test_rta_known_example () =
  (* classic example: R3 = 1 + interference *)
  let rows = [| (3, 3, 1); (5, 5, 2); (10, 10, 1) |] in
  check (option int) "R1 = C1" (Some 1) (Analysis.Rta.response_time ~tasks:rows 0);
  check (option int) "R2" (Some 3) (Analysis.Rta.response_time ~tasks:rows 1);
  (* R3: fixpoint of 1 + ceil(R/3)*1 + ceil(R/5)*2 = 5 *)
  check (option int) "R3" (Some 5) (Analysis.Rta.response_time ~tasks:rows 2);
  check bool "feasible" true (Analysis.Rta.feasible rows)

let test_rta_infeasible () =
  let rows = [| (4, 4, 2); (6, 6, 3) |] in
  (* R2 = 3 + ceil(R/4)*2: 5 -> 3+4=7 > 6 *)
  check (option int) "R2 overruns" None (Analysis.Rta.response_time ~tasks:rows 1);
  check bool "set infeasible" false (Analysis.Rta.feasible rows);
  check bool "prefix without the overrunning task is fine" true
    (Analysis.Rta.feasible_prefix rows ~upto:1)

let test_rta_table2 () =
  let rows =
    Array.map
      (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
      (Model.Taskset.tasks Workload.Presets.table2)
  in
  check bool "tau5 fails under RM" false (Analysis.Rta.feasible rows);
  (* tau5 is at rank 4; everything above it is fine *)
  check bool "tau1..tau4 fine" true (Analysis.Rta.feasible_prefix rows ~upto:4);
  check bool "tau5 is the troublesome task" false
    (Analysis.Rta.feasible_prefix rows ~upto:5)

(* ------------------------------------------------------------------ *)
(* Demand criterion *)

let test_dbf () =
  check int "before deadline" 0
    (Analysis.Demand.dbf ~period:10 ~deadline:10 ~wcet:3 9);
  check int "at deadline" 3
    (Analysis.Demand.dbf ~period:10 ~deadline:10 ~wcet:3 10);
  check int "two jobs" 6
    (Analysis.Demand.dbf ~period:10 ~deadline:10 ~wcet:3 20);
  check int "constrained deadline" 3
    (Analysis.Demand.dbf ~period:10 ~deadline:4 ~wcet:3 4)

let test_demand_feasible () =
  check bool "U<1 implicit deadlines" true
    (Analysis.Demand.feasible
       ~own:[| (10, 10, 4); (15, 15, 5) |]
       ~interference:[||] ());
  check bool "U>1 infeasible" false
    (Analysis.Demand.feasible
       ~own:[| (10, 10, 6); (15, 15, 9) |]
       ~interference:[||] ());
  (* constrained deadlines can fail below U = 1 *)
  check bool "tight deadline fails" false
    (Analysis.Demand.feasible ~own:[| (10, 2, 3) |] ~interference:[||] ());
  (* interference consumes the slack *)
  check bool "with interference" true
    (Analysis.Demand.feasible ~own:[| (10, 10, 2) |] ~interference:[| (5, 2) |] ());
  check bool "interference overload" false
    (Analysis.Demand.feasible ~own:[| (10, 10, 4) |] ~interference:[| (5, 4) |] ())

(* ------------------------------------------------------------------ *)
(* Overhead model *)

let test_overhead_layout () =
  check (pair (list int) int) "clipped layout"
    ([ 2; 3 ], 5)
    (Analysis.Overhead.layout [ 2; 3 ] 10);
  check (pair (list int) int) "oversized partition clipped"
    ([ 4; 2 ], 0)
    (Analysis.Overhead.layout [ 4; 9 ] 6)

let test_overhead_magnitudes () =
  (* EDF per-period overhead at n=15:
     1.5 * (1.6 + 1.2 + 2*(1.2 + 0.25*15)) us = 1.5 * 12.7 = 19.05 *)
  let edf = Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Edf ~n:15 ~rank:0 in
  check int "edf n=15" (Model.Time.of_us_f 19.05) edf;
  (* RM at n=15: 1.5 * (1.0+0.36*15 + 1.4 + 2*0.6) us = 1.5 * 9.0 *)
  let rm = Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Rm ~n:15 ~rank:0 in
  check int "rm n=15" (Model.Time.of_us_f 13.5) rm;
  check bool "EDF overhead grows with n" true
    (Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Edf ~n:40 ~rank:0 > edf)

let test_overhead_csd_classes () =
  let spec = Emeralds.Sched.Csd [ 3; 5 ] in
  let dp1 = Analysis.Overhead.per_task ~cost ~spec ~n:20 ~rank:0 in
  let dp2 = Analysis.Overhead.per_task ~cost ~spec ~n:20 ~rank:4 in
  let fp = Analysis.Overhead.per_task ~cost ~spec ~n:20 ~rank:12 in
  (* Table 3: DP1 total O(r) < DP2 total O(2r - q) *)
  check bool "DP1 cheaper than DP2" true (dp1 < dp2);
  check bool "all positive" true (dp1 > 0 && dp2 > 0 && fp > 0);
  (* every class beats plain EDF at this size *)
  let edf = Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Edf ~n:20 ~rank:0 in
  check bool "DP1 cheaper than pure EDF" true (dp1 < edf)

(* ------------------------------------------------------------------ *)
(* Feasibility dispatch *)

let test_feasibility_table2 () =
  (* zero-cost: policy-only feasibility *)
  let z = Sim.Cost.zero in
  let ts = Workload.Presets.table2 in
  check bool "RM infeasible" false
    (Analysis.Feasibility.feasible ~cost:z ~spec:Emeralds.Sched.Rm ts);
  check bool "EDF feasible" true
    (Analysis.Feasibility.feasible ~cost:z ~spec:Emeralds.Sched.Edf ts);
  check bool "CSD-2 with tau1..5 dynamic feasible" true
    (Analysis.Feasibility.feasible ~cost:z ~spec:(Emeralds.Sched.Csd [ 5 ]) ts);
  (* a CSD-2 split below the troublesome task is still infeasible *)
  check bool "CSD-2 with tau1..4 dynamic infeasible" false
    (Analysis.Feasibility.feasible ~cost:z ~spec:(Emeralds.Sched.Csd [ 4 ]) ts)

let test_partition_candidates () =
  let c2 = Analysis.Partition.candidates ~mode:Exhaustive ~queues:2 ~n:10 in
  check int "CSD-2 exhaustive count" 10 (List.length c2);
  let c3 = Analysis.Partition.candidates ~mode:Exhaustive ~queues:3 ~n:10 in
  check int "CSD-3 exhaustive count = C(10,2)" 45 (List.length c3);
  List.iter
    (fun sizes -> check bool "sizes positive" true (List.for_all (fun s -> s > 0) sizes))
    c3;
  let grid = Analysis.Partition.candidates ~mode:Grid ~queues:3 ~n:50 in
  check bool "grid is small" true (List.length grid < 60);
  check bool "grid includes the all-DP split" true
    (List.exists (fun sizes -> List.fold_left ( + ) 0 sizes = 50) grid)

let test_exhaustive_best_table2 () =
  match Analysis.Partition.exhaustive_best ~cost:Sim.Cost.zero ~queues:2
          Workload.Presets.table2 with
  | Some [ r ] ->
    check int "search finds the troublesome boundary" 5 r
  | Some _ | None -> fail "expected a CSD-2 partition"

(* ------------------------------------------------------------------ *)
(* Breakdown utilization *)

let test_breakdown_edf_zero_cost () =
  let ts = Model.Taskset.of_list [ task 1 10 2; task 2 20 4; task 3 40 8 ] in
  let b = Analysis.Breakdown.of_spec ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf ts in
  check bool "EDF ideal breakdown ~ 1.0" true (b > 0.99 && b <= 1.01)

let test_breakdown_overheads_reduce () =
  let ts =
    Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed:3) ~n:30 ()
  in
  let ideal = Analysis.Breakdown.of_spec ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf ts in
  let real = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Edf ts in
  check bool "overheads lower the breakdown" true (real < ideal)

let test_breakdown_csd_dominates () =
  let sets = Workload.Generator.batch ~seed:21 ~n:30 ~count:6 () in
  List.iter
    (fun ts ->
      let edf = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Edf ts in
      let rm = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Rm ts in
      let csd3 = Analysis.Breakdown.of_csd ~cost ~queues:3 ts in
      check bool "CSD-3 >= EDF (tolerance)" true (csd3 >= edf -. 0.02);
      check bool "CSD-3 >= RM (tolerance)" true (csd3 >= rm -. 0.02))
    sets

let prop_feasibility_monotone_in_scale =
  qtest "feasibility is monotone in the scale factor"
    QCheck2.Gen.(pair (int_range 1 1000) (float_range 0.1 0.9))
    (fun (seed, s) ->
      let ts =
        Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n:12 ()
      in
      let feasible x =
        match Model.Taskset.scale_wcets ts x with
        | None -> false
        | Some scaled ->
          Analysis.Feasibility.feasible ~cost ~spec:Emeralds.Sched.Edf scaled
      in
      (* if feasible at 1.0x it must be feasible at s < 1 too *)
      (not (feasible 1.0)) || feasible s)

let prop_breakdown_bounded =
  qtest "breakdown utilization lies in (0, 1]"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let ts =
        Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n:10 ()
      in
      let b = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Rm ts in
      b > 0.0 && b <= 1.02)

let test_demand_resource_cap () =
  (* a feasible set needing three check points: an artificially small
     point budget must yield the conservative (infeasible) verdict,
     never a hang or a false positive *)
  let own = [| (10, 10, 5); (14, 14, 6) |] in
  check bool "feasible with enough points" true
    (Analysis.Demand.feasible ~own ~interference:[||] ());
  check bool "conservative when capped" false
    (Analysis.Demand.feasible ~max_points:2 ~own ~interference:[||] ())

let test_rta_iteration_limit () =
  let rows = [| (ms 10, ms 10, ms 5); (ms 10, ms 10, ms 5) |] in
  (* converges normally *)
  check bool "fits exactly" true (Analysis.Rta.feasible rows);
  (* a recurrence that grows by 1 ns per step under a deadline it
     never reaches stops at the iteration limit instead of looping *)
  check (option int) "limit respected" None
    (Analysis.Rta.response_time
       ~tasks:[| (1, 1, 1); (max_int, max_int, 1) |]
       1)

let prop_partition_candidates_valid =
  qtest "partition candidates are well-formed"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 2 60))
    (fun (queues, n) ->
      let check_list mode =
        List.for_all
          (fun sizes ->
            sizes <> []
            && List.for_all (fun s -> s > 0) sizes
            && List.fold_left ( + ) 0 sizes <= n
            && List.length sizes = queues - 1)
          (Analysis.Partition.candidates ~mode ~queues ~n)
      in
      check_list Grid
      && (queues > 3 || n > 25 || check_list Exhaustive))

let test_breakdown_rejects_empty_utilization () =
  check bool "u0 <= 0 rejected" true
    (try
       ignore (Analysis.Breakdown.search ~feasible:(fun _ -> true) ~u0:0.0);
       false
     with Invalid_argument _ -> true)

(* PDC is exact for independent preemptive EDF, and the zero-cost
   kernel is an ideal EDF machine, so the two must agree both ways on
   constrained-deadline workloads. *)
let gen_constrained_taskset =
  QCheck2.Gen.(
    let* n = int_range 1 5 in
    let* specs =
      list_repeat n
        (triple
           (oneofl [ 4; 5; 8; 10; 20; 40 ])
           (int_range 20 400)
           (int_range 40 100))
    in
    let tasks =
      List.mapi
        (fun i (p, permille, dl_pct) ->
          let period = ms p in
          let deadline = max 1 (period * dl_pct / 100) in
          let wcet =
            Util.Intmath.clamp ~lo:1 ~hi:deadline (period * permille / 1000)
          in
          Model.Task.make ~id:(i + 1) ~period ~deadline ~wcet ())
        specs
    in
    return (Model.Taskset.of_list tasks))

let prop_demand_agrees_with_sim =
  qtest "PDC agrees with ideal EDF simulation" gen_constrained_taskset
    (fun ts ->
      let rows =
        Array.map
          (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
          (Model.Taskset.tasks ts)
      in
      let feasible = Analysis.Demand.feasible ~own:rows ~interference:[||] () in
      let k =
        Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf
          ~taskset:ts ()
      in
      Emeralds.Kernel.run k ~until:(ms 80);
      let missed = Emeralds.Kernel.total_misses k > 0 in
      feasible = not missed)

let suite =
  [
    test_case "rta: textbook example" `Quick test_rta_known_example;
    test_case "rta: infeasible detection" `Quick test_rta_infeasible;
    test_case "rta: Table 2" `Quick test_rta_table2;
    test_case "demand: dbf" `Quick test_dbf;
    test_case "demand: feasibility" `Quick test_demand_feasible;
    test_case "overhead: layout" `Quick test_overhead_layout;
    test_case "overhead: magnitudes" `Quick test_overhead_magnitudes;
    test_case "overhead: CSD classes" `Quick test_overhead_csd_classes;
    test_case "feasibility: Table 2" `Quick test_feasibility_table2;
    test_case "partition: candidates" `Quick test_partition_candidates;
    test_case "partition: exhaustive on Table 2" `Quick test_exhaustive_best_table2;
    test_case "breakdown: EDF ideal" `Quick test_breakdown_edf_zero_cost;
    test_case "breakdown: overheads matter" `Quick test_breakdown_overheads_reduce;
    test_case "breakdown: CSD dominates" `Quick test_breakdown_csd_dominates;
    prop_feasibility_monotone_in_scale;
    prop_breakdown_bounded;
    test_case "demand: resource cap" `Quick test_demand_resource_cap;
    test_case "rta: iteration limit" `Quick test_rta_iteration_limit;
    prop_partition_candidates_valid;
    test_case "breakdown: input validation" `Quick
      test_breakdown_rejects_empty_utilization;
    prop_demand_agrees_with_sim;
  ]
