(* Semaphore protocol (§6): mutual exclusion, priority inheritance,
   the context-switch elimination, the approach queue, and the paper's
   safety arguments (completion times unchanged, case-B fix). *)

open Alcotest
open Emeralds

let ms = Model.Time.ms
let us = Model.Time.us

let task ?phase id p c = Model.Task.make ?phase ~id ~period:(ms p) ~wcet:(ms c) ()

let run_k ?(cost = Sim.Cost.zero) ?(spec = Sched.Edf) ?(optimized_pi = true)
    ~programs ts ~until =
  let k =
    Kernel.create ~cost ~spec ~taskset:ts ~programs ~optimized_pi ()
  in
  Kernel.run k ~until;
  k

let stat k tid =
  List.find (fun (s : Kernel.task_stats) -> s.tid = tid) (Kernel.stats k)

let entries_of k = Sim.Trace.entries (Kernel.trace k)

(* ------------------------------------------------------------------ *)
(* Mutual exclusion *)

(* Two tasks hammer one lock; trace lock/unlock alternation proves
   mutual exclusion. *)
let test_mutual_exclusion kind () =
  let sem = Objects.sem ~kind () in
  let ts = Model.Taskset.of_list [ task 1 10 3; task 2 15 5 ] in
  let programs (t : Model.Task.t) =
    Program.(critical sem (Model.Time.mul t.wcet 1))
  in
  let k = run_k ~programs ts ~until:(ms 300) in
  check int "no misses" 0 (Kernel.total_misses k);
  let holder = ref None in
  let scan (s : Sim.Trace.stamped) =
    match s.entry with
    | Sem_acquired { tid; _ } -> (
      match !holder with
      | None -> holder := Some tid
      | Some h -> failf "tau%d acquired while tau%d holds" tid h)
    | Sem_released { tid; _ } -> (
      match !holder with
      | Some h when h = tid -> holder := None
      | Some h -> failf "tau%d released but tau%d holds" tid h
      | None -> failf "tau%d released an un-held semaphore" tid)
    | _ -> ()
  in
  List.iter scan (entries_of k);
  (* the horizon may cut a job mid-critical-section, so the lock being
     held at the end is fine; the alternation scan above is the
     mutual-exclusion property *)
  ignore !holder

(* ------------------------------------------------------------------ *)
(* The Figure 6 scenario, both schemes, zero cost *)

let scenario ~kind =
  let sem = Objects.sem ~kind () in
  let event = Objects.waitq () in
  (* T2 high (id 1), Tx filler (id 2), T1 holder low (id 3) *)
  let ts =
    Model.Taskset.of_list
      [
        task 1 40 3;
        task ~phase:(ms 1) 2 60 12;
        task 3 100 8;
      ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> [ wait event; acquire sem; compute (ms 1); release sem ]
    | 2 -> [ compute (ms 10) ]
    | 3 -> [ acquire sem; compute (ms 5); release sem; compute (ms 2) ]
    | _ -> assert false
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts ~programs
      ~optimized_pi:(kind = Types.Emeralds) ()
  in
  Kernel.at k ~at:(ms 2) (fun () -> Kernel.signal_waitq k event);
  Kernel.run k ~until:(ms 39);
  k

let test_completion_times_equal () =
  (* §6.2.2: the new scheme only swaps execution chunks between T1 and
     T2 — with zero kernel costs, completion times are identical. *)
  let std = scenario ~kind:Types.Standard in
  let eme = scenario ~kind:Types.Emeralds in
  List.iter
    (fun tid ->
      check int
        (Printf.sprintf "tau%d same response" tid)
        (stat std tid).max_response (stat eme tid).max_response)
    [ 1; 2; 3 ]

let test_context_switch_saved () =
  let std = scenario ~kind:Types.Standard in
  let eme = scenario ~kind:Types.Emeralds in
  check int "exactly one switch saved"
    (Sim.Trace.context_switches (Kernel.trace std) - 1)
    (Sim.Trace.context_switches (Kernel.trace eme))

(* §6.2.1 hints across structured control flow: the Figure 6 scenario
   with T2's acquire wrapped in a branch.  When every arm first
   acquires the same semaphore, the hint survives flattening and the
   EMERALDS scheme still saves the context switch; when the arms
   disagree, the hint must degrade to None and the optimization stands
   down — on the very same executed path (the branch oracle forces the
   first arm in both schemes), so the switch-count difference isolates
   the hint. *)
let branch_scenario ~agree ~kind =
  let sem = Objects.sem ~kind () in
  let other = Objects.sem ~kind () in
  let event = Objects.waitq () in
  let ts =
    Model.Taskset.of_list
      [ task 1 40 3; task ~phase:(ms 1) 2 60 12; task 3 100 8 ]
  in
  let waiter_prog =
    let open Program in
    let arm s c = [ acquire s; compute (ms c); release s ] in
    [
      wait event;
      (if agree then if_input (arm sem 1) (arm sem 2)
       else if_input (arm sem 1) (arm other 1));
    ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> waiter_prog
    | 2 -> [ compute (ms 10) ]
    | 3 -> [ acquire sem; compute (ms 5); release sem; compute (ms 2) ]
    | _ -> assert false
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset:ts ~programs
      ~optimized_pi:(kind = Types.Emeralds) ()
  in
  Kernel.set_branch_oracle k (Some (fun ~tid:_ ~job:_ ~idx:_ -> Some true));
  Kernel.at k ~at:(ms 2) (fun () -> Kernel.signal_waitq k event);
  Kernel.run k ~until:(ms 39);
  (k, waiter_prog, sem)

let test_hints_across_branches () =
  (* statically: the hint at the wait looks through the branch *)
  let _, agree_prog, sem = branch_scenario ~agree:true ~kind:Types.Emeralds in
  let hints = Program.derive_hints (Program.flatten agree_prog) in
  (match hints.(0) with
  | Some s -> check int "agreeing arms keep the hint" sem.Types.sem_id s.sem_id
  | None -> fail "hint lost across agreeing branch arms");
  let _, disagree_prog, _ = branch_scenario ~agree:false ~kind:Types.Emeralds in
  let hints = Program.derive_hints (Program.flatten disagree_prog) in
  check bool "disagreeing arms degrade the hint to None" true
    (hints.(0) = None);
  (* dynamically: the kernel's switch counts confirm both verdicts *)
  let switches (k, _, _) = Sim.Trace.context_switches (Kernel.trace k) in
  check int "agreeing hint still saves the switch"
    (switches (branch_scenario ~agree:true ~kind:Types.Standard) - 1)
    (switches (branch_scenario ~agree:true ~kind:Types.Emeralds));
  check int "degraded hint saves nothing"
    (switches (branch_scenario ~agree:false ~kind:Types.Standard))
    (switches (branch_scenario ~agree:false ~kind:Types.Emeralds))

let test_waiter_never_runs_between () =
  (* In the EMERALDS scheme T2 must not execute between event E and
     T1's release: no switch *to* T2 may appear in that window. *)
  let eme = scenario ~kind:Types.Emeralds in
  let release_time = ref None in
  List.iter
    (fun (s : Sim.Trace.stamped) ->
      match s.entry with
      | Sem_released { tid = 3; _ } when !release_time = None ->
        release_time := Some s.at
      | _ -> ())
    (entries_of eme);
  let release_at = Option.get !release_time in
  List.iter
    (fun (s : Sim.Trace.stamped) ->
      match s.entry with
      | Context_switch { to_tid = Some 1; _ } when s.at >= ms 2 ->
        (* from event E onward, T2 may run only once T1 released *)
        check bool "switch to T2 only after the release" true
          (s.at >= release_at)
      | _ -> ())
    (entries_of eme)

let test_priority_inheritance_traced () =
  let std = scenario ~kind:Types.Standard in
  let has_inherit =
    List.exists
      (fun (s : Sim.Trace.stamped) ->
        match s.entry with
        | Priority_inherit { holder = 3; from_tid = 1 } -> true
        | _ -> false)
      (entries_of std)
  in
  check bool "T1 inherited T2's priority" true has_inherit

(* ------------------------------------------------------------------ *)
(* Priority inversion bound *)

let test_pi_bounds_inversion () =
  (* Classic Mars-Pathfinder shape: low L holds the lock, medium M
     hogs the CPU, high H needs the lock.  With PI, H completes before
     M's long job can interpose. *)
  let sem = Objects.sem ~kind:Types.Emeralds () in
  let ts =
    Model.Taskset.of_list
      [
        task ~phase:(ms 3) 1 100 2; (* H *)
        task ~phase:(ms 1) 2 200 50; (* M *)
        task 3 400 10; (* L *)
      ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> critical sem (ms 2)
    | 2 -> [ compute (ms 50) ]
    | 3 -> critical sem (ms 10)
    | _ -> assert false
  in
  let k = run_k ~programs ts ~until:(ms 120) in
  (* Without PI, H would wait for all of M's 50ms.  With PI, H waits
     only for L's remaining critical section. *)
  check bool "H's response bounded by L's critical section" true
    ((stat k 1).max_response <= ms 12);
  check int "H met its deadline" 0 (stat k 1).misses

(* ------------------------------------------------------------------ *)
(* Approach queue (§6.3.1) *)

let test_case_b_fix () =
  (* T2 completes its wait while S is free, but a higher thread T1
     locks S before T2 reaches acquire: T2 must be blocked rather than
     allowed to run toward a doomed acquire. *)
  let sem = Objects.sem ~kind:Types.Emeralds () in
  let event = Objects.waitq () in
  let ts =
    Model.Taskset.of_list
      [ task 1 50 6; task ~phase:(ms 4) 2 30 4 ]
    (* tau2 (id 2, period 30) outranks tau1 *)
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 ->
      (* completes the hinted wait at 2ms (signal pending),
         then computes toward its acquire *)
      [ compute (ms 1); wait event; compute (ms 5); acquire sem;
        compute (ms 2); release sem ]
    | 2 -> acquire sem :: compute (ms 1) :: delay (ms 5) :: [ compute (ms 1); release sem ]
    | _ -> assert false
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:ts ~programs ()
  in
  Kernel.at k ~at:(ms 1) (fun () -> Kernel.signal_waitq k event);
  (* Probe while tau2 holds S and sleeps (t = 7ms): tau1 must be
     parked in the approach queue, not computing toward acquire. *)
  let probe = ref None in
  Kernel.at k ~at:(ms 7) (fun () ->
      let t1 = Kernel.tcb k ~tid:1 in
      probe := Some t1.Types.state);
  Kernel.run k ~until:(ms 40);
  (match !probe with
  | Some (Types.Blocked "approach") -> ()
  | Some s ->
    failf "tau1 should be approach-blocked, got %s"
      (match s with
      | Types.Ready -> "Ready"
      | Types.Running -> "Running"
      | Types.Dormant -> "Dormant"
      | Types.Blocked r -> "Blocked:" ^ r)
  | None -> fail "probe did not run");
  check int "no misses" 0 (Kernel.total_misses k)

let test_release_wakes_approachers () =
  (* Same setup; after tau2 releases, tau1 finishes its job. *)
  let sem = Objects.sem ~kind:Types.Emeralds () in
  let event = Objects.waitq () in
  let ts = Model.Taskset.of_list [ task 1 100 6; task ~phase:(ms 4) 2 50 4 ] in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> [ compute (ms 1); wait event; compute (ms 5); acquire sem;
             compute (ms 2); release sem ]
    | 2 -> acquire sem :: compute (ms 1) :: delay (ms 5) :: [ compute (ms 1); release sem ]
    | _ -> assert false
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:ts ~programs ()
  in
  Kernel.at k ~at:(ms 1) (fun () -> Kernel.signal_waitq k event);
  Kernel.run k ~until:(ms 100);
  check int "tau1 completed its job" 1 (stat k 1).jobs_completed;
  check int "tau2 completed too" 2 (stat k 2).jobs_completed;
  check int "nobody missed" 0 (Kernel.total_misses k)

(* ------------------------------------------------------------------ *)
(* Blocking-for-internal-event safety (§6.3.2, Figure 10) *)

let test_holder_blocks_for_signal () =
  (* T1 locks S then waits for Ts's signal; T2 (hinted) stays blocked;
     when Ts signals, T1 finishes and T2 proceeds — nobody deadlocks. *)
  let sem = Objects.sem ~kind:Types.Emeralds () in
  let gate = Objects.waitq () in
  let wake = Objects.waitq () in
  let ts =
    Model.Taskset.of_list
      [ task 1 100 2; task ~phase:(ms 1) 2 100 3; task ~phase:(ms 2) 3 100 1 ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> [ wait gate; acquire sem; compute (ms 1); release sem ]
    | 2 -> [ acquire sem; wait wake; compute (ms 1); release sem ]
    | 3 -> [ compute (ms 1); signal wake ]
    | _ -> assert false
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:ts ~programs ()
  in
  Kernel.at k ~at:(ms 1) (fun () -> Kernel.signal_waitq k gate);
  Kernel.run k ~until:(ms 100);
  List.iter
    (fun tid ->
      check int (Printf.sprintf "tau%d done" tid) 1 (stat k tid).jobs_completed)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Error handling and counting *)

let test_release_unheld_rejected () =
  let sem = Objects.sem () in
  let ts = Model.Taskset.of_list [ task 1 10 1 ] in
  let programs _ = [ Program.release sem ] in
  check bool "releasing an un-held semaphore is a kernel error" true
    (try
       ignore (run_k ~programs ts ~until:(ms 5));
       false
     with Invalid_argument _ -> true)

let test_queue_wakeup_order () =
  (* Three waiters of different priorities: the grant order follows
     priority, not FIFO. *)
  let sem = Objects.sem ~kind:Types.Standard () in
  let ts =
    Model.Taskset.of_list
      [
        task ~phase:(ms 3) 1 100 1;
        task ~phase:(ms 2) 2 200 1;
        task ~phase:(ms 1) 3 300 1;
        task 4 400 10;
      ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    if t.id = 4 then critical sem (ms 6) else critical sem (ms 1)
  in
  let k = run_k ~spec:Sched.Rm ~programs ts ~until:(ms 50) in
  let grants =
    List.filter_map
      (fun (s : Sim.Trace.stamped) ->
        match s.entry with
        | Sem_acquired { tid; _ } -> Some tid
        | _ -> None)
      (entries_of k)
  in
  (* tau4 locks first; despite tau3 arriving first, tau1 is granted
     next, then tau2, then tau3 *)
  check (list int) "priority-ordered grants" [ 4; 1; 2; 3 ] grants

let test_counting_via_chain () =
  (* Nested critical sections: a holder of A blocking on B inherits
     through the chain. *)
  let a = Objects.sem ~kind:Types.Emeralds () in
  let b = Objects.sem ~kind:Types.Emeralds () in
  let ts =
    Model.Taskset.of_list
      [ task ~phase:(ms 4) 1 100 2; task ~phase:(ms 2) 2 100 4; task 3 100 6 ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> critical a (ms 1)
    | 2 -> [ acquire a; acquire b; compute (ms 1); release b; release a ]
    | 3 -> critical b (ms 4)
    | _ -> assert false
  in
  let k = run_k ~spec:Sched.Rm ~programs ts ~until:(ms 100) in
  check int "no misses under chained PI" 0 (Kernel.total_misses k);
  List.iter
    (fun tid ->
      check int (Printf.sprintf "tau%d done" tid) 1 (stat k tid).jobs_completed)
    [ 1; 2; 3 ]

(* Under RM, a waiter can outrank the holder by deadline alone (here
   tau2's job is due at 40ms, holder tau1's at 45ms).
   The holder takes the earlier deadline but must keep its FP slot: a
   place-holder swap would park it below tau3, and once tau1 wakes
   from its in-section delay the ready queue would be out of order. *)
let test_deadline_only_inheritance_keeps_fp_order () =
  let sem = Objects.sem ~kind:Types.Emeralds () in
  let ts =
    Model.Taskset.of_list
      [
        task ~phase:(ms 30) 1 15 3;
        task ~phase:(us 31_500) 3 20 2;
        task 2 40 33;
      ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> [ acquire sem; delay (ms 2); compute (ms 1); release sem ]
    | 2 -> [ compute (ms 31); acquire sem; compute (ms 1); release sem ]
    | 3 -> [ compute (ms 2) ]
    | _ -> assert false
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:ts ~programs ()
  in
  Kernel.at k ~at:(us 32_500) (fun () -> Kernel.check_invariants k);
  Kernel.run k ~until:(ms 40);
  let inherited =
    List.exists
      (fun (s : Sim.Trace.stamped) ->
        match s.entry with
        | Priority_inherit { holder = 1; from_tid = 2 } -> true
        | _ -> false)
      (entries_of k)
  in
  check bool "tau1 inherited tau2's deadline" true inherited;
  check int "tau1 preempts tau3 on waking" (ms 3) (stat k 1).max_response;
  Kernel.check_invariants k

(* Generalizing §6.2.2: for random semaphore programs under a
   zero-cost kernel, the EMERALDS scheme must not change any task's
   deadline outcome — it only swaps execution chunks around.  The
   atoms deliberately exclude wait-queue signal/wait: the §6.2.2
   safety argument covers semaphore blocking only, and chunk
   reordering *is* observable through signal/wait ordering (a chunk
   moved past another task's wait flips whether a signal finds a
   waiter or is lost), so the equivalence is genuinely false for
   waitq programs — exhaustive search over seeds 1..100000, n ∈ 2..5
   finds counterexamples with waitq atoms (e.g. seed 1664, n = 5) and
   none without. *)
let qtest ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let scheme_gen_atom s1 =
  QCheck2.Gen.(
    frequency
      [
        (5, (let+ n = int_range 50 800 in [ Program.compute (us n) ]));
        (3, (let+ n = int_range 100 500 in Program.critical s1 (us n)));
        (1, (let+ n = int_range 50 300 in [ Program.delay (us (500 + n)) ]));
      ])

let scheme_outcome kind ~n ~seed =
  let rng = Util.Rng.create ~seed in
  let s1 = Objects.sem ~kind () in
  let taskset =
    Model.Taskset.of_list
      (List.init n (fun i ->
           let period = Util.Rng.choose rng [| ms 10; ms 20; ms 25; ms 40 |] in
           Model.Task.make ~id:(i + 1) ~period ~wcet:(ms 2) ()))
  in
  let gen = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
  let programs =
    Array.init n (fun _ ->
        gen
          QCheck2.Gen.(
            let* len = int_range 1 6 in
            let+ atoms = list_repeat len (scheme_gen_atom s1) in
            List.concat atoms))
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset
      ~programs:(fun t -> programs.(t.id - 1))
      ~optimized_pi:(kind = Types.Emeralds) ()
  in
  Kernel.run k ~until:(ms 200);
  List.map
    (fun (s : Kernel.task_stats) -> (s.tid, s.jobs_completed, s.misses))
    (Kernel.stats k)

let prop_schemes_equivalent_outcomes =
  qtest "both schemes yield identical deadline outcomes (zero cost)"
    QCheck2.Gen.(pair (int_range 2 5) (int_range 1 100_000))
    (fun (n, seed) ->
      scheme_outcome Types.Standard ~n ~seed
      = scheme_outcome Types.Emeralds ~n ~seed)

let suite =
  [
    prop_schemes_equivalent_outcomes;
    test_case "mutual exclusion (standard)" `Quick
      (test_mutual_exclusion Types.Standard);
    test_case "mutual exclusion (EMERALDS)" `Quick
      (test_mutual_exclusion Types.Emeralds);
    test_case "completion times unchanged (§6.2.2)" `Quick
      test_completion_times_equal;
    test_case "context switch saved" `Quick test_context_switch_saved;
    test_case "hints across branch arms (§6.2.1)" `Quick
      test_hints_across_branches;
    test_case "waiter held back until release" `Quick
      test_waiter_never_runs_between;
    test_case "priority inheritance traced" `Quick
      test_priority_inheritance_traced;
    test_case "PI bounds priority inversion" `Quick test_pi_bounds_inversion;
    test_case "case-B fix (approach queue)" `Quick test_case_b_fix;
    test_case "release wakes approachers" `Quick test_release_wakes_approachers;
    test_case "holder blocking for a signal (Fig 10)" `Quick
      test_holder_blocks_for_signal;
    test_case "release of un-held semaphore" `Quick test_release_unheld_rejected;
    test_case "priority-ordered grants" `Quick test_queue_wakeup_order;
    test_case "chained inheritance" `Quick test_counting_via_chain;
    test_case "deadline-only inheritance keeps FP order" `Quick
      test_deadline_only_inheritance_keeps_fp_order;
  ]

let _ = us
