(* Workload generation (§5.7 methodology) and presets. *)

open Alcotest

let qtest ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms

let test_period_buckets () =
  (* Periods are 5-9, 10-99 or 100-999 ms, roughly a third each. *)
  let rng = Util.Rng.create ~seed:4 in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 50 do
    let ts = Workload.Generator.random_taskset ~rng ~n:30 () in
    Array.iter
      (fun (t : Model.Task.t) ->
        let p = t.period in
        if p >= ms 5 && p <= ms 9 then counts.(0) <- counts.(0) + 1
        else if p >= ms 10 && p <= ms 99 then counts.(1) <- counts.(1) + 1
        else if p >= ms 100 && p <= ms 999 then counts.(2) <- counts.(2) + 1
        else failf "period out of range: %dms" (p / 1_000_000))
      (Model.Taskset.tasks ts)
  done;
  let total = counts.(0) + counts.(1) + counts.(2) in
  check int "all periods classified" 1500 total;
  Array.iter
    (fun c ->
      check bool "each bucket near a third" true
        (float_of_int c /. float_of_int total > 0.25
        && float_of_int c /. float_of_int total < 0.42))
    counts

let test_target_utilization () =
  let rng = Util.Rng.create ~seed:5 in
  let ts = Workload.Generator.random_taskset ~rng ~n:20 ~target_u:0.6 () in
  check bool "utilization near target" true
    (abs_float (Model.Taskset.utilization ts -. 0.6) < 0.02)

let test_blocking_call_mix () =
  let rng = Util.Rng.create ~seed:6 in
  let ts = Workload.Generator.random_taskset ~rng ~n:20 () in
  let with_calls =
    Array.fold_left
      (fun acc (t : Model.Task.t) -> acc + min 1 t.blocking_calls)
      0 (Model.Taskset.tasks ts)
  in
  check int "half the tasks make a blocking call" 10 with_calls

let test_batch_reproducibility () =
  let a = Workload.Generator.batch ~seed:42 ~n:10 ~count:5 () in
  let b = Workload.Generator.batch ~seed:42 ~n:10 ~count:5 () in
  List.iter2
    (fun x y ->
      let tx = Model.Taskset.tasks x and ty = Model.Taskset.tasks y in
      Array.iteri
        (fun i (t : Model.Task.t) ->
          check int "same periods" t.period ty.(i).period;
          check int "same wcets" t.wcet ty.(i).wcet)
        tx)
    a b;
  (* prefix stability: workload i doesn't depend on count *)
  let big = Workload.Generator.batch ~seed:42 ~n:10 ~count:8 () in
  let first_small = Model.Taskset.tasks (List.hd a) in
  let first_big = Model.Taskset.tasks (List.hd big) in
  Array.iteri
    (fun i (t : Model.Task.t) ->
      check int "prefix stable" t.period first_big.(i).period)
    first_small

let prop_generated_sets_valid =
  qtest "generated sets are well-formed"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 1 40))
    (fun (seed, n) ->
      let ts =
        Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n ()
      in
      Model.Taskset.size ts = n
      && Model.Taskset.utilization ts > 0.0
      && Array.for_all
           (fun (t : Model.Task.t) -> t.wcet >= 1 && t.wcet <= t.deadline)
           (Model.Taskset.tasks ts))

(* Scenario specs come from split streams: spec [i] is a function of
   [seed] and [i] alone, so growing the campaign's [--count] never
   changes an already-generated scenario — falsification indices stay
   replayable forever. *)
let test_scenario_stream_split_invariance () =
  let long = Workload.Generator.scenario_specs ~seed:13 ~count:50 () in
  let short = Workload.Generator.scenario_specs ~seed:13 ~count:10 () in
  List.iteri
    (fun i s ->
      check bool
        (Printf.sprintf "spec %d independent of count" i)
        true
        (s = List.nth long i))
    short

(* Every generated scenario spec is structurally well-formed: object
   indices within the declared tables, nested locks above their outer
   lock (the acyclic acquisition order), admissible utilization, and a
   realizable program for every task. *)
let prop_scenario_specs_well_formed =
  qtest ~count:40 "scenario specs are well-formed"
    QCheck2.Gen.(int_range 1 2_000)
    (fun seed ->
      let specs = Workload.Generator.scenario_specs ~seed ~count:4 () in
      List.for_all
        (fun (s : Workload.Generator.spec) ->
          let rec seg_ok (seg : Workload.Generator.seg) =
            match seg with
            | S_branch (a, b) -> List.for_all seg_ok a && List.for_all seg_ok b
            | S_repeat (n, body) -> n >= 0 && List.for_all seg_ok body
            | S_compute d -> d >= 0
            | S_critical { lock; body; nested } -> (
              lock >= 0 && lock < s.s_locks && body >= 0
              && match nested with
                 | None -> true
                 | Some (l2, b2) -> l2 > lock && l2 < s.s_locks && b2 >= 0)
            | S_cond_wait { lock; wq; before; after } ->
              lock >= 0 && lock < s.s_locks && wq >= 0 && wq < s.s_waitqs
              && before >= 0 && after >= 0
            | S_wait w | S_signal w -> w >= 0 && w < s.s_waitqs
            | S_timed_wait (w, d) -> w >= 0 && w < s.s_waitqs && d > 0
            | S_send m | S_recv m ->
              m >= 0 && m < List.length s.s_mailboxes
            | S_state_write m | S_state_read m ->
              m >= 0 && m < List.length s.s_state_msgs
            | S_delay d -> d > 0
            | S_alloc p | S_free p -> p >= 0 && p < List.length s.s_pools
          in
          (* alloc/free balance: every job returns what it took
             (counting through branch arms and loop iterations — a
             burst loop retains blocks across iterations but the tail
             frees them all), and each pool's capacity covers the sum
             of its users' worst-path peaks *)
          let task_pool_walk p (t : Workload.Generator.task_spec) =
            let rec walk (cur, peak) (seg : Workload.Generator.seg) =
              match seg with
              | S_alloc q when q = p ->
                let c = cur + 1 in
                (c, max peak c)
              | S_free q when q = p -> (cur - 1, peak)
              | S_branch (a, b) ->
                let ca, pa = List.fold_left walk (cur, peak) a in
                let cb, pb = List.fold_left walk (cur, peak) b in
                (max ca cb, max pa pb)
              | S_repeat (n, body) ->
                if n = 0 then (cur, peak)
                else
                  let c1, p1 = List.fold_left walk (cur, peak) body in
                  let d = c1 - cur in
                  (cur + (n * d), if d > 0 then p1 + ((n - 1) * d) else p1)
              | _ -> (cur, peak)
            in
            List.fold_left walk (0, 0) t.g_segs
          in
          let pools_balanced =
            List.for_all
              (fun (t : Workload.Generator.task_spec) ->
                List.for_all
                  (fun p -> fst (task_pool_walk p t) = 0)
                  (List.init (List.length s.s_pools) Fun.id))
              s.s_tasks
            && List.for_all Fun.id
                 (List.mapi
                    (fun p (cap, bytes) ->
                      let demand =
                        List.fold_left
                          (fun acc t -> acc + snd (task_pool_walk p t))
                          0 s.s_tasks
                      in
                      cap >= demand && bytes > 0)
                    s.s_pools)
          in
          let ids =
            List.map (fun (t : Workload.Generator.task_spec) -> t.g_id) s.s_tasks
          in
          pools_balanced
          && List.length (List.sort_uniq compare ids) = List.length ids
          && List.for_all
               (fun (t : Workload.Generator.task_spec) ->
                 t.g_period > 0 && List.for_all seg_ok t.g_segs)
               s.s_tasks
          && Workload.Generator.spec_utilization s <= 1.0
          &&
          (* realization allocates objects and declares WCETs *)
          let sc = Workload.Generator.realize s in
          Model.Taskset.size sc.taskset = List.length s.s_tasks)
        specs)

(* The structured-control-flow families were added by APPENDING their
   rng draws after every existing draw in [spec_of], so streams
   generated before the change replay with identical names, periods,
   release kinds and object topologies — falsification indices recorded
   by old campaigns still reproduce the same scenarios.  The golden
   strings below were captured from the straight-line generator;
   only segment lists and the burst families' appended pools may
   grow. *)
let test_stream_stability_golden () =
  let golden =
    [
      "gen-0-robotics|2|1|0|1|1:32000000:false;2:64000000:false;\
       3:4000000:false;4:16000000:false;5:32000000:false;6:32000000:false;\
       7:32000000:false;8:64000000:false";
      "gen-1-robotics|1|1|0|1|1:4000000:false;2:8000000:false;\
       3:64000000:false;4:4000000:false;5:32000000:false;6:4000000:false;\
       7:4000000:false;8:32000000:false";
      "gen-2-avionics|2|1|1|2|1:50000000:false;2:25000000:false;\
       3:25000000:false;4:50000000:false;5:50000000:false";
      "gen-3-automotive|0|0|0|1|1:5000000:false;2:50000000:false;\
       3:50000000:false;4:100000000:false;5:5000000:false;6:50000000:true;\
       7:50000000:false;8:20000000:false";
      "gen-4-generic|2|0|1|0|1:8000000:false;2:5000000:false;\
       3:40000000:false;4:50000000:false;5:5000000:true;6:250000000:false";
      "gen-5-avionics|2|0|1|2|1:50000000:false;2:25000000:false;\
       3:50000000:false;4:50000000:false;5:50000000:false;6:100000000:false";
    ]
  in
  let stable_sig (s : Workload.Generator.spec) =
    Printf.sprintf "%s|%d|%d|%d|%d|%s" s.s_name s.s_locks s.s_waitqs
      (List.length s.s_mailboxes)
      (List.length s.s_state_msgs)
      (String.concat ";"
         (List.map
            (fun (t : Workload.Generator.task_spec) ->
              Printf.sprintf "%d:%d:%b" t.g_id t.g_period t.g_sporadic)
            s.s_tasks))
  in
  let specs = Workload.Generator.scenario_specs ~seed:42 ~count:6 () in
  List.iteri
    (fun i s ->
      check string
        (Printf.sprintf "spec %d stable fields unchanged" i)
        (List.nth golden i) (stable_sig s))
    specs;
  (* ...and the appended draws really do produce the new families *)
  let specs = Workload.Generator.scenario_specs ~seed:42 ~count:40 () in
  let has pred =
    List.exists
      (fun (s : Workload.Generator.spec) ->
        List.exists
          (fun (t : Workload.Generator.task_spec) -> List.exists pred t.g_segs)
          s.s_tasks)
      specs
  in
  check bool "branchy segments appear" true
    (has (function Workload.Generator.S_branch _ -> true | _ -> false));
  check bool "loopy segments appear" true
    (has (function Workload.Generator.S_repeat _ -> true | _ -> false));
  check bool "burst alloc loops appear" true
    (has (function
      | Workload.Generator.S_repeat (_, body) ->
        List.exists
          (function Workload.Generator.S_alloc _ -> true | _ -> false)
          body
      | _ -> false))

let test_presets_sane () =
  List.iter
    (fun (name, ts, max_u) ->
      let u = Model.Taskset.utilization ts in
      check bool (name ^ " utilization sane") true (u > 0.2 && u < max_u))
    [
      ("table2", Workload.Presets.table2, 0.9);
      ("engine", Workload.Presets.engine_control, 1.0);
      ("avionics", Workload.Presets.avionics, 1.0);
      ("voice", Workload.Presets.voice, 1.0);
    ];
  check (float 0.001) "table2 is the paper's 0.884" 0.884
    (Model.Taskset.utilization Workload.Presets.table2);
  check int "troublesome rank names tau5" 5
    (Model.Taskset.get Workload.Presets.table2
       Workload.Presets.table2_troublesome_rank)
      .id

(* Object ids are per realization: realizing a spec (or building a
   preset) twice numbers every semaphore, wait queue, mailbox, pool and
   state message alike, in programs and IRQ sources, and the two
   kernels' traces are bit-identical. *)
let object_ids (sc : Workload.Scenario.t) =
  let open Emeralds.Types in
  let ids = ref [] in
  let add space id = ids := (space, id) :: !ids in
  let state sm = add "state" (Emeralds.State_msg.id sm) in
  Array.iter
    (fun t ->
      Emeralds.Program.iter_leaves
        (function
          | Acquire s | Release s -> add "sem" s.sem_id
          | Wait q | Timed_wait (q, _) | Signal q | Broadcast q ->
            add "waitq" q.wq_id
          | Send (m, _) | Recv m -> add "mailbox" m.mb_id
          | State_write (sm, _) | State_read sm -> state sm
          | Alloc p | Free p -> add "pool" p.pool_id
          | _ -> ())
        (sc.programs t))
    (Model.Taskset.tasks sc.taskset);
  List.iter
    (fun (src : Workload.Scenario.irq_source) ->
      List.iter (fun q -> add "waitq" q.wq_id) src.signals;
      List.iter state src.writes)
    sc.irq_sources;
  List.rev !ids

let test_realizations_number_alike () =
  let trace sc =
    let cfg =
      Fault.Inject.default_config ~scenario:sc ~horizon:(ms 200) ~seed:9 ()
    in
    Emeralds.Kernel.trace (Fault.Inject.run cfg).kernel
  in
  let same name mk =
    let a = mk () in
    let b = mk () in
    check (list (pair string int)) (name ^ " object ids") (object_ids a)
      (object_ids b);
    let ta = trace a and tb = trace b in
    check bool (name ^ " traces equal") true (Sim.Trace.equal ta tb);
    check string (name ^ " traces bit-identical") (Sim.Trace.to_csv ta)
      (Sim.Trace.to_csv tb)
  in
  List.iter
    (fun (spec : Workload.Generator.spec) ->
      same spec.s_name (fun () -> Workload.Generator.realize spec))
    (Workload.Generator.scenario_specs ~seed:42 ~count:30 ());
  List.iter
    (fun name -> same name (fun () -> Option.get (Workload.Scenario.make name)))
    Workload.Scenario.names

let suite =
  [
    test_case "period buckets" `Quick test_period_buckets;
    test_case "target utilization" `Quick test_target_utilization;
    test_case "blocking-call mix" `Quick test_blocking_call_mix;
    test_case "batch reproducibility" `Quick test_batch_reproducibility;
    prop_generated_sets_valid;
    test_case "scenario stream split invariance" `Quick
      test_scenario_stream_split_invariance;
    prop_scenario_specs_well_formed;
    test_case "stream stability golden" `Quick test_stream_stability_golden;
    test_case "presets" `Quick test_presets_sane;
    test_case "realizations number objects alike" `Quick
      test_realizations_number_alike;
  ]
