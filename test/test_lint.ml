(* The static verifier: one negative test per diagnostic kind, the
   shipped scenarios linting clean, the code-parser differential check,
   blocking-term extraction, and the soundness cross-validation of
   static blocking terms against simulated traces. *)

open Alcotest
open Emeralds

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms
let us = Model.Time.us

(* A context from a list of programs: task i+1 gets the i-th program,
   periods 10ms, 20ms, ... so list order is RM-rank order. *)
let ctx_of ?irq_signals ?irq_writes progs =
  let arr = Array.of_list progs in
  let taskset =
    Model.Taskset.of_list
      (List.init (Array.length arr) (fun i ->
           Model.Task.make ~id:(i + 1)
             ~period:(ms (10 * (i + 1)))
             ~wcet:(ms 1) ()))
  in
  Lint.Ctx.make ?irq_signals ?irq_writes ~taskset
    ~programs:(fun (t : Model.Task.t) -> arr.(t.id - 1))
    ()

let findings_of check severity diags =
  List.filter
    (fun (d : Lint.Diag.t) -> d.check = check && d.severity = severity)
    diags

let count_errors check diags =
  List.length (findings_of check Lint.Diag.Error diags)

(* ------------------------------------------------------------------ *)
(* one negative example per diagnostic kind *)

let test_lock_balance () =
  let s = Objects.sem () in
  let open Program in
  let diags = Lint.Report.run (ctx_of [ [ release s ] ]) in
  check int "release without acquire" 1 (count_errors "lock-balance" diags);
  let diags =
    Lint.Report.run
      (ctx_of [ [ acquire s; acquire s; release s; release s ] ])
  in
  check int "double acquire of a mutex" 1 (count_errors "lock-balance" diags);
  (match findings_of "lock-balance" Lint.Diag.Error diags with
  | [ d ] -> check (option int) "at the second acquire" (Some 1) d.pc
  | _ -> fail "expected exactly one finding");
  let diags =
    Lint.Report.run (ctx_of [ [ acquire s; compute (us 100) ] ])
  in
  check int "held at job end" 1 (count_errors "lock-balance" diags)

let test_alloc_discipline () =
  let p = Objects.pool ~block_bytes:32 ~capacity:4 () in
  let open Program in
  (* balanced alloc/free is clean *)
  let diags =
    Lint.Report.run
      (ctx_of [ [ alloc p; alloc p; compute (us 100); free p; free p ] ])
  in
  check int "balanced use is clean" 0 (count_errors "alloc-discipline" diags);
  (* a block held at job end is a leak *)
  let diags =
    Lint.Report.run (ctx_of [ [ alloc p; alloc p; compute (us 100); free p ] ])
  in
  check int "leak at job end" 1 (count_errors "alloc-discipline" diags);
  (* freeing a block the job does not hold *)
  let diags = Lint.Report.run (ctx_of [ [ alloc p; free p; free p ] ]) in
  check int "double free" 1 (count_errors "alloc-discipline" diags);
  (match findings_of "alloc-discipline" Lint.Diag.Error diags with
  | [ d ] -> check (option int) "at the second free" (Some 2) d.pc
  | _ -> fail "expected exactly one finding");
  (* per-task peak above the pool's capacity: denial is certain *)
  let tiny = Objects.pool ~block_bytes:16 ~capacity:1 () in
  let greedy = [ alloc tiny; alloc tiny; free tiny; free tiny ] in
  let diags = Lint.Report.run (ctx_of [ greedy ]) in
  check int "peak above capacity" 1 (count_errors "alloc-discipline" diags);
  (* summed peaks above capacity across tasks: a warning only *)
  let shared = Objects.pool ~block_bytes:16 ~capacity:2 () in
  let two = [ alloc shared; alloc shared; free shared; free shared ] in
  let diags = Lint.Report.run (ctx_of [ two; two ]) in
  check int "no per-task error" 0 (count_errors "alloc-discipline" diags);
  check int "concurrent oversubscription warns" 1
    (List.length (findings_of "alloc-discipline" Lint.Diag.Warning diags));
  (* the demo scenarios carry exactly the seeded defects *)
  let of_scenario (s : Workload.Scenario.t) =
    Lint.Report.run
      (Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
         ~taskset:s.taskset ~programs:s.programs ())
  in
  check int "leak demo flagged" 1
    (count_errors "alloc-discipline" (of_scenario (Workload.Scenario.leak_demo ())));
  check int "double-free demo flagged" 1
    (count_errors "alloc-discipline"
       (of_scenario (Workload.Scenario.double_free_demo ())));
  check int "alloc demo clean" 0
    (count_errors "alloc-discipline" (of_scenario (Workload.Scenario.alloc_demo ())))

let test_deadlock () =
  let a = Objects.sem () and b = Objects.sem () in
  let open Program in
  let nest x y c = [ acquire x; compute c; acquire y; release y; release x ] in
  let diags =
    Lint.Report.run
      (ctx_of [ nest a b (us 100); nest b a (us 100) ])
  in
  check int "opposite nesting orders form a cycle" 1
    (count_errors "deadlock" diags);
  let diags =
    Lint.Report.run
      (ctx_of [ nest a b (us 100); nest a b (us 200) ])
  in
  check int "consistent nesting order is fine" 0
    (count_errors "deadlock" diags)

let test_hygiene () =
  let m = Objects.sem () and cond = Objects.waitq () in
  let open Program in
  (* the waiter holds the monitor lock; the only signaller signals
     inside a critical section on that same lock: certain deadlock *)
  let diags =
    Lint.Report.run
      (ctx_of
         [
           [ acquire m; wait cond; release m ];
           [ acquire m; signal cond; release m ];
         ])
  in
  check int "condvar misuse without releasing the mutex" 1
    (count_errors "blocking-hygiene" diags);
  (* the correct pattern releases first (Program.condition_wait) *)
  let diags =
    Lint.Report.run
      (ctx_of
         [
           (acquire m :: condition_wait cond m) @ [ release m ];
           [ acquire m; signal cond; release m ];
         ])
  in
  check int "condition_wait is clean" 0 (count_errors "blocking-hygiene" diags);
  let diags =
    Lint.Report.run
      (ctx_of [ [ acquire m; delay (us 300); release m ] ])
  in
  check int "delay while holding is only a warning" 0
    (count_errors "blocking-hygiene" diags);
  check int "  ... but is reported" 1
    (List.length (findings_of "blocking-hygiene" Lint.Diag.Warning diags))

let test_state_discipline () =
  let sm = State_msg.create ~depth:2 ~words:2 in
  let open Program in
  let diags =
    Lint.Report.run
      (ctx_of
         [
           [ state_write sm (words 2) ];
           [ state_write sm (words 2) ];
         ])
  in
  check int "two writers break the single-writer rule" 1
    (count_errors "state-discipline" diags);
  (* an IRQ writer counts as a writer too *)
  let diags =
    Lint.Report.run
      (ctx_of ~irq_writes:[ sm ] [ [ state_write sm (words 2) ] ])
  in
  check int "task + IRQ writer also breaks it" 1
    (count_errors "state-discipline" diags);
  let diags =
    Lint.Report.run (ctx_of [ [ state_write sm (words 3) ] ])
  in
  check int "payload size mismatch" 1 (count_errors "state-discipline" diags);
  let diags =
    Lint.Report.run
      (ctx_of ~irq_writes:[ sm ] [ [ state_read sm; compute (us 50) ] ])
  in
  check int "single IRQ writer, task reader: clean" 0
    (count_errors "state-discipline" diags)

let test_liveness () =
  let wq = Objects.waitq () and mb = Objects.mailbox ~capacity:2 () in
  let open Program in
  let diags = Lint.Report.run (ctx_of [ [ wait wq ] ]) in
  check int "wait with no signaller blocks forever" 1
    (count_errors "liveness" diags);
  let diags =
    Lint.Report.run (ctx_of ~irq_signals:[ wq ] [ [ wait wq ] ])
  in
  check int "an IRQ signaller satisfies the wait" 0
    (count_errors "liveness" diags);
  let diags = Lint.Report.run (ctx_of [ [ timed_wait wq (us 500) ] ]) in
  check int "timed waits survive on timeouts (warning only)" 0
    (count_errors "liveness" diags);
  let diags = Lint.Report.run (ctx_of [ [ recv mb ] ]) in
  check int "receivers with no senders" 1 (count_errors "liveness" diags);
  let diags =
    Lint.Report.run (ctx_of [ [ send mb (words 1) ]; [ recv mb ] ])
  in
  check int "paired mailbox is clean" 0 (count_errors "liveness" diags)

(* ------------------------------------------------------------------ *)
(* the shipped scenarios lint clean *)

let test_scenarios_clean () =
  List.iter
    (fun (s : Workload.Scenario.t) ->
      let ctx =
        Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
          ~taskset:s.taskset ~programs:s.programs ()
      in
      let diags = Lint.Report.run ctx in
      check int (s.name ^ " has no lint errors") 0 (Lint.Diag.errors diags))
    (Workload.Scenario.all ());
  (* the pure-compute workload has nothing to even warn about *)
  match Workload.Scenario.make "table2" with
  | Some s ->
    let ctx =
      Lint.Ctx.make ~taskset:s.taskset ~programs:s.programs ()
    in
    check int "table2 has no findings at all" 0
      (List.length (Lint.Report.run ctx))
  | None -> fail "table2 scenario missing"

(* ------------------------------------------------------------------ *)
(* code-parser differential: derive_hints vs an independent reference *)

(* Reference semantics, written as a spec rather than a scan: the hint
   at a blocking, non-acquire position is [Some s] iff the first
   blocking instruction strictly after it is [Acquire s]. *)
let reference_hints program =
  let n = Array.length program in
  let blocking_after i =
    let rest = Array.to_list (Array.sub program (i + 1) (n - i - 1)) in
    List.find_opt Program.is_blocking rest
  in
  Array.mapi
    (fun i instr ->
      if not (Program.is_blocking instr) then None
      else
        match instr with
        | Types.Acquire _ -> None
        | _ -> (
          match blocking_after i with
          | Some (Types.Acquire s) -> Some s
          | _ -> None))
    program

let sem_ids hints =
  Array.map (Option.map (fun (s : Types.sem) -> s.Types.sem_id)) hints

(* Deterministic random programs over a small shared vocabulary. *)
let gen_instr_program =
  QCheck2.Gen.(int_range 1 100_000 >|= fun seed -> seed)

let random_program rng =
  let a = Objects.sem () and b = Objects.sem () in
  let wq = Objects.waitq () and mb = Objects.mailbox ~capacity:2 () in
  let sm = State_msg.create ~depth:2 ~words:1 in
  let len = Util.Rng.int_in rng ~lo:0 ~hi:12 in
  Array.init len (fun _ ->
      match Util.Rng.int rng 11 with
      | 0 -> Program.compute (us 100)
      | 1 -> Program.acquire a
      | 2 -> Program.acquire b
      | 3 -> Program.release a
      | 4 -> Program.wait wq
      | 5 -> Program.timed_wait wq (us 200)
      | 6 -> Program.signal wq
      | 7 -> Program.send mb [| 1 |]
      | 8 -> Program.recv mb
      | 9 -> Program.state_read sm
      | 10 -> Program.delay (us 150)
      | _ -> Program.state_write sm [| 2 |])

let prop_hints_differential =
  qtest "derive_hints matches the reference on random programs"
    gen_instr_program (fun seed ->
      let program = random_program (Util.Rng.create ~seed) in
      sem_ids (Program.derive_hints program) = sem_ids (reference_hints program))

let test_hints_edges () =
  let s = Objects.sem () and wq = Objects.waitq () in
  let open Program in
  (* the hint propagates through a non-blocking prefix ... *)
  let p = [| wait wq; signal wq; compute (us 10); acquire s; release s |] in
  let hints = sem_ids (derive_hints p) in
  check (option int) "hint through non-blocking prefix"
    (Some s.Types.sem_id) hints.(0);
  (* ... but not through another blocking call *)
  let p = [| wait wq; delay (us 10); acquire s; release s |] in
  check (option int) "an intervening blocking call kills the hint" None
    (sem_ids (derive_hints p)).(0);
  (* a trailing blocking call has nothing to hint at *)
  let p = [| compute (us 10); wait wq |] in
  check (option int) "trailing blocking call" None
    (sem_ids (derive_hints p)).(1);
  (* condition_wait's wait carries the re-acquire hint *)
  let p = Array.of_list (condition_wait wq s) in
  check (option int) "condition_wait hints the re-acquire"
    (Some s.Types.sem_id)
    (sem_ids (derive_hints p)).(1);
  (* a timed wait hints just like an untimed one: the timeout path
     re-joins at the same next acquire *)
  let p = [| timed_wait wq (us 250); acquire s; release s |] in
  check (option int) "timed_wait followed by acquire"
    (Some s.Types.sem_id)
    (sem_ids (derive_hints p)).(0);
  (* broadcast never blocks, so it neither gets a hint nor blocks one
     from propagating past it *)
  let p = [| wait wq; broadcast wq; compute (us 5) |] in
  let hints = sem_ids (derive_hints p) in
  check (option int) "broadcast with nothing blocking after: no hint" None
    hints.(0);
  check (option int) "broadcast itself is not a blocking position" None
    hints.(1);
  let p = [| wait wq; broadcast wq; acquire s; release s |] in
  check (option int) "the hint propagates through a broadcast"
    (Some s.Types.sem_id)
    (sem_ids (derive_hints p)).(0);
  (* a blocking call before condition_wait sees the wait, not the
     re-acquire beyond it; the wait itself still hints the re-acquire *)
  let p = Array.of_list (delay (us 20) :: condition_wait wq s) in
  let hints = sem_ids (derive_hints p) in
  check (option int) "condition_wait's wait shields earlier hints" None
    hints.(0);
  check (option int) "while the wait still hints its own re-acquire"
    (Some s.Types.sem_id) hints.(2)

(* ------------------------------------------------------------------ *)
(* blocking-term extraction *)

let test_blocking_sections () =
  let a = Objects.sem () and b = Objects.sem () in
  let wq = Objects.waitq () in
  let open Program in
  let ctx =
    ctx_of
      [
        (* nested: inner CS time counts in the outer section *)
        [
          acquire a; compute (us 100); acquire b; compute (us 50); release b;
          compute (us 25); release a;
        ];
        (* a wait inside the CS contributes nothing (unbounded) *)
        [ acquire b; wait wq; compute (us 30); release b; signal wq ];
      ]
  in
  let sections = Lint.Blocking_terms.critical_sections ctx in
  let dur rank sem_id =
    List.filter_map
      (fun (cs : Analysis.Blocking.critical_section) ->
        if cs.task_rank = rank && cs.sem = sem_id then Some cs.duration
        else None)
      sections
  in
  check (list int) "outer section includes nested time" [ us 175 ]
    (dur 0 a.Types.sem_id);
  check (list int) "inner section" [ us 50 ] (dur 0 b.Types.sem_id);
  check (list int) "unbounded blocking is excluded" [ us 30 ]
    (dur 1 b.Types.sem_id);
  (* an unreleased section still yields a (lock-balance-flagged) term *)
  let ctx = ctx_of [ [ acquire a; compute (us 40) ] ] in
  check (list int) "unclosed section runs to job end" [ us 40 ]
    (List.filter_map
       (fun (cs : Analysis.Blocking.critical_section) ->
         if cs.sem = a.Types.sem_id then Some cs.duration else None)
       (Lint.Blocking_terms.critical_sections ctx));
  (* per-sem summary: ceiling is the best rank that locks it *)
  let ctx =
    ctx_of
      [
        [ compute (us 10) ];
        Program.critical a (us 200);
        Program.critical a (us 900);
      ]
  in
  check (list (triple int int int)) "per-sem ceiling and worst CS"
    [ (a.Types.sem_id, 1, us 900) ]
    (Lint.Blocking_terms.per_sem ctx)

let test_blocking_feeds_rta () =
  match Workload.Scenario.make "engine" with
  | None -> fail "engine scenario missing"
  | Some s ->
    let ctx =
      Lint.Ctx.make ~irq_writes:s.irq_writes ~taskset:s.taskset
        ~programs:s.programs ()
    in
    let blocking = Lint.Blocking_terms.blocking_terms ctx in
    let rows =
      Array.map
        (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
        (Model.Taskset.tasks s.taskset)
    in
    check bool "some rank has a non-zero static blocking term" true
      (Array.exists (fun b -> b > 0) blocking);
    Array.iteri
      (fun i _ ->
        let plain = Analysis.Rta.response_time ~tasks:rows i in
        let blocked =
          Analysis.Rta.response_time ~blocking ~tasks:rows i
        in
        match (plain, blocked) with
        | Some r, Some rb ->
          check bool
            (Printf.sprintf "R%d with blocking is no smaller" i)
            true
            (rb >= r + blocking.(i));
          if blocking.(i) = 0 then
            check int (Printf.sprintf "R%d unchanged when B=0" i) r rb
        | _ -> fail "engine preset should be RTA-feasible both ways")
      rows;
    check bool "engine stays feasible with derived blocking terms" true
      (Analysis.Rta.feasible ~blocking rows)

(* ------------------------------------------------------------------ *)
(* cross-validation: static terms bound observed blocking *)

(* Under zero kernel cost and RM, a rank-0 job that blocks on a mutex
   waits exactly for the remainder of the holder's critical section:
   the holder inherits rank-0 priority, so nothing preempts it.  That
   observed wait must never exceed the statically extracted B0. *)
let test_blocking_cross_validation () =
  let s = Objects.sem ~kind:Types.Emeralds () in
  let open Program in
  let progs tid =
    match tid with
    | 1 -> [ acquire s; compute (ms 1); release s; compute (us 500) ]
    | 2 -> [ compute (ms 2) ]
    | _ -> [ acquire s; compute (ms 3); release s; compute (ms 1) ]
  in
  let taskset =
    Model.Taskset.of_list
      [
        (* phase 1ms: released mid-way through tau3's critical section *)
        Model.Task.make ~id:1 ~phase:(ms 1) ~period:(ms 20) ~wcet:(ms 2) ();
        Model.Task.make ~id:2 ~period:(ms 30) ~wcet:(ms 2) ();
        Model.Task.make ~id:3 ~period:(ms 50) ~wcet:(ms 5) ();
      ]
  in
  let programs (t : Model.Task.t) = progs t.id in
  let ctx = Lint.Ctx.make ~taskset ~programs () in
  check int "the scenario itself lints clean" 0
    (Lint.Diag.errors (Lint.Report.run ctx));
  let static_b = Lint.Blocking_terms.blocking_terms ctx in
  check int "static B0 is tau3's full critical section" (ms 3) static_b.(0);
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset ~programs ()
  in
  Kernel.run k ~until:(ms 200);
  (* longest observed Sem_blocked -> Sem_acquired gap of the rank-0 task *)
  let blocked_at = ref None and max_wait = ref 0 in
  List.iter
    (fun (st : Sim.Trace.stamped) ->
      match st.entry with
      | Sim.Trace.Sem_blocked { tid = 1; _ } -> blocked_at := Some st.at
      | Sim.Trace.Sem_acquired { tid = 1; _ } -> (
        match !blocked_at with
        | Some t0 ->
          max_wait := max !max_wait (st.at - t0);
          blocked_at := None
        | None -> ())
      | _ -> ())
    (Sim.Trace.entries (Kernel.trace k));
  check bool "tau1 actually blocked at least once" true (!max_wait > 0);
  check bool
    (Printf.sprintf "observed blocking %dns within static bound %dns"
       !max_wait static_b.(0))
    true
    (!max_wait <= static_b.(0))

(* ------------------------------------------------------------------ *)
(* dead-branch: structurally useless control flow *)

let test_dead_branch () =
  let open Program in
  let warns diags =
    findings_of "dead-branch" Lint.Diag.Warning diags
    @ findings_of "dead-branch" Lint.Diag.Info diags
  in
  let diags =
    Lint.Report.run
      (ctx_of [ [ if_input [ compute (us 100) ] [ compute (us 100) ] ] ])
  in
  check int "identical arms flagged" 1 (List.length (warns diags));
  check int "never as an error (advisory only)" 0
    (count_errors "dead-branch" diags);
  (* the warning routes into SARIF with its rule id and level *)
  let sarif = Lint.Sarif.of_diags diags in
  check bool "SARIF carries the dead-branch rule" true
    (List.exists
       (fun (r : Lint.Sarif.result) ->
         r.rule_id = "dead-branch" && r.level = Lint.Sarif.Warning)
       sarif);
  let diags = Lint.Report.run (ctx_of [ [ if_input [] [] ] ]) in
  check int "two empty arms flagged" 1 (List.length (warns diags));
  let diags =
    Lint.Report.run (ctx_of [ [ repeat 0 [ compute (us 100) ] ] ])
  in
  check int "unreachable repeat-0 body flagged" 1 (List.length (warns diags));
  let diags = Lint.Report.run (ctx_of [ [ repeat 3 [] ] ]) in
  check int "empty loop body noted" 1 (List.length (warns diags));
  (* nested dead decisions are still found *)
  let diags =
    Lint.Report.run
      (ctx_of
         [
           [
             repeat 2
               [ if_input [ compute (us 50) ] [ compute (us 50) ] ];
           ];
         ])
  in
  check int "dead branch inside a live loop" 1 (List.length (warns diags));
  (* live control flow stays silent *)
  let diags =
    Lint.Report.run
      (ctx_of
         [
           [
             if_input [ compute (us 100) ] [ compute (us 200) ];
             repeat 3 [ compute (us 50) ];
           ];
         ])
  in
  check int "live branch and loop not flagged" 0 (List.length (warns diags))

let suite =
  [
    test_case "lock balance diagnostics" `Quick test_lock_balance;
    test_case "alloc discipline diagnostics" `Quick test_alloc_discipline;
    test_case "lock-order deadlock detection" `Quick test_deadlock;
    test_case "blocking hygiene" `Quick test_hygiene;
    test_case "state-message discipline" `Quick test_state_discipline;
    test_case "liveness pairing" `Quick test_liveness;
    test_case "shipped scenarios lint clean" `Quick test_scenarios_clean;
    prop_hints_differential;
    test_case "code-parser hint edge cases" `Quick test_hints_edges;
    test_case "blocking-term extraction" `Quick test_blocking_sections;
    test_case "derived terms feed RTA" `Quick test_blocking_feeds_rta;
    test_case "static blocking bounds simulated blocking" `Quick
      test_blocking_cross_validation;
    test_case "dead-branch diagnostics" `Quick test_dead_branch;
  ]
