(* Tests for the task/time model. *)

open Alcotest

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check int "us" 1_000 (Model.Time.us 1);
  check int "ms" 1_000_000 (Model.Time.ms 1);
  check int "sec" 1_000_000_000 (Model.Time.sec 1);
  check int "of_us_f rounds" 250 (Model.Time.of_us_f 0.25);
  check int "of_us_f 1.6" 1_600 (Model.Time.of_us_f 1.6);
  check (float 1e-9) "to_us_f" 1.5 (Model.Time.to_us_f 1_500);
  check (float 1e-9) "to_ms_f" 2.0 (Model.Time.to_ms_f (ms 2))

let test_time_arith () =
  check int "add" 5 (Model.Time.add 2 3);
  check int "sub" 1 (Model.Time.sub 3 2);
  check int "mul" 6 (Model.Time.mul 2 3);
  check int "min" 2 (Model.Time.min 2 3);
  check int "max" 3 (Model.Time.max 2 3)

let test_time_pp () =
  let s t = Format.asprintf "%a" Model.Time.pp t in
  check string "ns" "500ns" (s 500);
  check string "us" "1.50us" (s 1_500);
  check string "ms" "2.000ms" (s (ms 2));
  check string "s" "1.000s" (s (Model.Time.sec 1))

(* ------------------------------------------------------------------ *)
(* Task *)

let test_task_defaults () =
  let t = Model.Task.make ~id:1 ~period:(ms 10) ~wcet:(ms 2) () in
  check int "deadline defaults to period" (ms 10) t.deadline;
  check int "phase defaults to 0" 0 t.phase;
  check string "name default" "tau1" t.name;
  check (float 1e-9) "utilization" 0.2 (Model.Task.utilization t)

let check_raises' f =
  match f () with
  | () -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_task_validation () =
  let expect_invalid f = check_raises' f in
  expect_invalid (fun () ->
      ignore (Model.Task.make ~id:1 ~period:0 ~wcet:1 ()));
  expect_invalid (fun () ->
      ignore (Model.Task.make ~id:1 ~period:10 ~wcet:0 ()));
  expect_invalid (fun () ->
      ignore (Model.Task.make ~id:1 ~period:10 ~wcet:5 ~deadline:4 ()));
  expect_invalid (fun () ->
      ignore (Model.Task.make ~id:1 ~period:10 ~wcet:1 ~phase:(-1) ()));
  expect_invalid (fun () ->
      ignore (Model.Task.make ~id:1 ~period:10 ~wcet:1 ~blocking_calls:(-1) ()))

let test_task_orderings () =
  let a = Model.Task.make ~id:1 ~period:(ms 5) ~wcet:1 () in
  let b = Model.Task.make ~id:2 ~period:(ms 10) ~wcet:1 ~deadline:(ms 3) () in
  check bool "rm: shorter period first" true (Model.Task.rm_compare a b < 0);
  let a' = Model.Task.make ~id:3 ~period:(ms 5) ~wcet:1 () in
  check bool "ties broken by id" true (Model.Task.rm_compare a a' < 0)

let test_with_wcet () =
  let t = Model.Task.make ~id:1 ~period:(ms 10) ~wcet:(ms 2) () in
  let t' = Model.Task.with_wcet t (ms 5) in
  check int "wcet updated" (ms 5) t'.wcet;
  check int "period kept" (ms 10) t'.period;
  check_raises' (fun () -> ignore (Model.Task.with_wcet t (ms 11)))

(* ------------------------------------------------------------------ *)
(* Taskset *)

let sample =
  Model.Taskset.of_list
    [
      Model.Task.make ~id:3 ~period:(ms 20) ~wcet:(ms 2) ();
      Model.Task.make ~id:1 ~period:(ms 5) ~wcet:(ms 1) ();
      Model.Task.make ~id:2 ~period:(ms 8) ~wcet:(ms 2) ();
    ]

let test_taskset_order () =
  let tasks = Model.Taskset.tasks sample in
  check (list int) "sorted by period"
    [ 1; 2; 3 ]
    (Array.to_list (Array.map (fun (t : Model.Task.t) -> t.id) tasks));
  check int "get 0" 1 (Model.Taskset.get sample 0).id;
  check int "size" 3 (Model.Taskset.size sample)

let test_taskset_measures () =
  check (float 1e-9) "utilization" 0.55 (Model.Taskset.utilization sample);
  check int "hyperperiod" (ms 40) (Model.Taskset.hyperperiod sample);
  check int "max_phase" 0 (Model.Taskset.max_phase sample)

let test_taskset_validation () =
  check bool "duplicate ids rejected" true
    (try
       ignore
         (Model.Taskset.of_list
            [
              Model.Task.make ~id:1 ~period:10 ~wcet:1 ();
              Model.Task.make ~id:1 ~period:20 ~wcet:1 ();
            ]);
       false
     with Invalid_argument _ -> true);
  check bool "empty rejected" true
    (try
       ignore (Model.Taskset.of_list []);
       false
     with Invalid_argument _ -> true)

let test_scale_wcets () =
  (match Model.Taskset.scale_wcets sample 2.0 with
  | Some scaled ->
    check (float 1e-9) "doubled utilization" 1.1
      (Model.Taskset.utilization scaled)
  | None -> fail "scale 2.0 should fit");
  check bool "overscale returns None" true
    (Model.Taskset.scale_wcets sample 10.0 = None);
  match Model.Taskset.scale_wcets sample 1e-9 with
  | Some tiny ->
    Array.iter
      (fun (t : Model.Task.t) -> check bool "wcet floor 1ns" true (t.wcet >= 1))
      (Model.Taskset.tasks tiny)
  | None -> fail "tiny scale should fit"

let test_scale_periods_down () =
  (match Model.Taskset.scale_periods_down sample 2 with
  | Some scaled ->
    check int "period halved" (ms 10) (Model.Taskset.get scaled 2).period;
    check (float 1e-9) "utilization doubled" 1.1
      (Model.Taskset.utilization scaled)
  | None -> fail "divide by 2 should fit");
  (* dividing until a wcet exceeds its deadline must yield None *)
  check bool "infeasible divide" true
    (Model.Taskset.scale_periods_down sample 8 = None)

let prop_scale_roundtrip =
  qtest "scaling to a utilization hits it"
    QCheck2.Gen.(float_range 0.05 0.9)
    (fun target ->
      match
        Model.Taskset.scale_wcets sample
          (target /. Model.Taskset.utilization sample)
      with
      | Some scaled ->
        abs_float (Model.Taskset.utilization scaled -. target) < 0.01
      | None -> true)

let suite =
  [
    test_case "time: units" `Quick test_time_units;
    test_case "time: arithmetic" `Quick test_time_arith;
    test_case "time: printing" `Quick test_time_pp;
    test_case "task: defaults" `Quick test_task_defaults;
    test_case "task: validation" `Quick test_task_validation;
    test_case "task: priority orders" `Quick test_task_orderings;
    test_case "task: with_wcet" `Quick test_with_wcet;
    test_case "taskset: RM order" `Quick test_taskset_order;
    test_case "taskset: measures" `Quick test_taskset_measures;
    test_case "taskset: validation" `Quick test_taskset_validation;
    test_case "taskset: scale wcets" `Quick test_scale_wcets;
    test_case "taskset: scale periods" `Quick test_scale_periods_down;
    prop_scale_roundtrip;
  ]
