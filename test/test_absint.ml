(* The abstract interpreter: interval-domain unit tests, the transfer
   functions on hand-written programs, the nested-acquire fixpoint and
   its widening, per-preset soundness, the failing demo scenarios, the
   derived footprint — and the cross-validation square: absint bounds
   must contain simulator-observed execution and dominate both the
   lint extraction and everything the model checker can provoke. *)

open Alcotest
open Emeralds

let ms = Model.Time.ms
let us = Model.Time.us

let scenario_of ?(name = "absint-test") progs =
  let arr = Array.of_list progs in
  let taskset =
    Model.Taskset.of_list
      (List.init (Array.length arr) (fun i ->
           Model.Task.make ~id:(i + 1)
             ~period:(ms (10 * (i + 1)))
             ~wcet:(ms 9) ()))
  in
  {
    Workload.Scenario.name;
    taskset;
    programs = (fun (t : Model.Task.t) -> arr.(t.id - 1));
    irq_sources = [];
    irq_signals = [];
    irq_writes = [];
  }

let itv = testable (Fmt.of_to_string Absint.Itv.to_string) Absint.Itv.equal

let diags_with check_name (r : Absint.Report.t) =
  List.filter (fun (d : Lint.Diag.t) -> d.check = check_name) r.diags

(* ------------------------------------------------------------------ *)
(* the interval domain *)

let test_itv () =
  let open Absint.Itv in
  check itv "add is pointwise" (range 3 7) (add (range 1 2) (range 2 5));
  check itv "Inf absorbs in add" (unbounded_from 4)
    (add (const 4) (unbounded_from 0));
  check itv "join is the hull" (range 1 9) (join (range 1 3) (range 4 9));
  check itv "join with Inf" (unbounded_from 2)
    (join (range 2 5) (unbounded_from 3));
  check itv "widen keeps stable bounds" (range 1 5)
    (widen (range 1 5) (range 1 5));
  check itv "widen sends a rising hi to Inf" (unbounded_from 1)
    (widen (range 1 5) (range 1 6));
  check itv "widen sends a falling lo to 0"
    { lo = 0; hi = Fin 5 }
    (widen (range 2 5) (range 1 5));
  check bool "finite dominates up to hi" true (dominates (range 0 10) 10);
  check bool "finite fails above hi" false (dominates (range 0 10) 11);
  check bool "Inf dominates everything" true
    (dominates (unbounded_from 0) max_int);
  check bool "const clamps below zero" true (equal (const (-5)) zero);
  check_raises "range rejects hi < lo"
    (Invalid_argument "Itv.range: hi < lo") (fun () -> ignore (range 5 4))

(* ------------------------------------------------------------------ *)
(* transfer functions on hand-written programs *)

let analyze_zero progs =
  Absint.Report.analyze ~cost:Sim.Cost.zero (scenario_of progs)

let test_pure_compute () =
  let open Program in
  let r = analyze_zero [ [ compute (us 300); compute (us 700) ] ] in
  let s = r.tasks.(0).summary in
  check itv "demand is the exact sum" (Absint.Itv.const (us 1000)) s.exec;
  check itv "no suspension" Absint.Itv.zero s.suspend;
  check int "no nesting" 0 s.nesting;
  check int "no kernel window" 0 s.atomic;
  (* under the m68040 model every kernel call adds its charge *)
  let c = Sim.Cost.m68040 in
  let sm = State_msg.create ~depth:2 ~words:4 in
  let r =
    Absint.Report.analyze ~cost:c
      (scenario_of [ [ state_read sm; compute (us 300) ] ])
  in
  let s = r.tasks.(0).summary in
  check itv "kernel charges are in the demand"
    (Absint.Itv.const
       (us 300 + c.syscall_entry + Sim.Cost.state_read c ~words:4))
    s.exec;
  check int "the call is the non-preemptible window"
    (c.syscall_entry + Sim.Cost.state_read c ~words:4)
    s.atomic

let test_suspension () =
  let open Program in
  let wq = Objects.waitq () in
  let r =
    analyze_zero
      [ [ delay (us 400); timed_wait wq (us 900); compute (us 100) ];
        [ signal wq ] ]
  in
  let s = r.tasks.(0).summary in
  check itv "delay + timeout bound the suspension"
    (Absint.Itv.range (us 400) (us 1300))
    s.suspend;
  check bool "demand stays bounded" true (Absint.Itv.is_bounded s.exec);
  (* an untimed wait has no static bound *)
  let r = analyze_zero [ [ wait wq; compute (us 100) ]; [ signal wq ] ] in
  check bool "untimed wait is unbounded" false
    (Absint.Itv.is_bounded r.tasks.(0).summary.suspend);
  (* ... and poisons the derived RTA demand for that task only *)
  let demand = Absint.Report.derived_demand r in
  check bool "rank 0 demand is None" true (demand.(0) = None);
  check bool "rank 1 demand is Some" true (demand.(1) <> None)

let test_holds_and_fixpoint () =
  let a = Objects.sem () and b = Objects.sem () in
  let open Program in
  let r =
    analyze_zero
      [
        [
          acquire a; compute (us 100); acquire b; release b; release a;
          compute (us 50);
        ];
        critical b (us 500);
      ]
  in
  let hold_of id =
    (List.find (fun (sb : Absint.Report.sem_bound) -> sb.sem_id = id) r.sems)
      .hold
  in
  (* the outer hold absorbs the inner acquire's worst-case wait: b can
     be held for 500us by the other task *)
  check itv "outer hold includes the inner acquire wait"
    (Absint.Itv.range (us 100) (us 600))
    (hold_of a.Types.sem_id);
  check itv "b's worst hold joins both tasks' sections"
    (Absint.Itv.range 0 (us 500))
    (hold_of b.Types.sem_id);
  check int "two simultaneous frames" 2 r.tasks.(0).summary.nesting;
  check int "no findings" 0 (List.length r.diags);
  (* acquire waits outside any section are excluded from suspension:
     they are the RTA blocking term, not self-suspension *)
  check itv "acquire wait not double-counted as suspension"
    Absint.Itv.zero r.tasks.(0).summary.suspend

let test_widening_on_cycle () =
  (* opposite-order nesting: the mutual hold/wait recursion has no
     finite fixpoint, so widening must push both holds to Inf — and
     the analysis must still terminate and stay error-free (lint and
     the model checker own the deadlock verdict) *)
  let r =
    Absint.Report.analyze ~cost:Sim.Cost.zero
      (Workload.Scenario.seeded_deadlock ())
  in
  List.iter
    (fun (sb : Absint.Report.sem_bound) ->
      check bool
        (Printf.sprintf "sem %d hold widened to Inf" sb.sem_id)
        false
        (Absint.Itv.is_bounded sb.hold))
    r.sems;
  check int "two unbounded-hold warnings" 2
    (List.length (diags_with "hold-unbounded" r));
  check int "but no errors" 0 (Absint.Report.errors r)

let test_unbounded_hold_warning () =
  let s = Objects.sem () and wq = Objects.waitq () in
  let open Program in
  let r =
    analyze_zero
      [ [ acquire s; wait wq; release s ]; [ signal wq ] ]
  in
  check bool "warning carries the blocking pc" true
    (List.exists
       (fun (d : Lint.Diag.t) -> d.pc = Some 1)
       (diags_with "hold-unbounded" r));
  check bool "the hold span is unbounded" false
    (Absint.Itv.is_bounded (List.hd r.sems).hold);
  check int "a warning, not an error" 0 (Absint.Report.errors r)

(* ------------------------------------------------------------------ *)
(* presets: clean analysis, domination over the exact lint extraction *)

let test_presets_clean () =
  List.iter
    (fun cost ->
      List.iter
        (fun (sc : Workload.Scenario.t) ->
          let r = Absint.Report.analyze ~cost sc in
          check int (sc.name ^ " has no analyze errors") 0
            (Absint.Report.errors r);
          Array.iter
            (fun (tb : Absint.Report.task_bound) ->
              match Absint.Itv.hi_int tb.summary.exec with
              | None -> fail (sc.name ^ ": demand must always be finite")
              | Some hi ->
                check bool
                  (Printf.sprintf "%s/%s declared wcet covers derived demand"
                     sc.name tb.task.Model.Task.name)
                  true
                  (tb.task.Model.Task.wcet >= hi))
            r.tasks;
          check bool (sc.name ^ " fits the 128 KB envelope") true
            (r.total_bytes <= snd Footprint.envelope))
        (Workload.Scenario.all ()))
    [ Sim.Cost.zero; Sim.Cost.m68040 ]

let test_holds_dominate_lint () =
  List.iter
    (fun (sc : Workload.Scenario.t) ->
      let r = Absint.Report.analyze sc in
      let ctx =
        Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
          ~taskset:sc.taskset ~programs:sc.programs ()
      in
      List.iter
        (fun (sem_id, ceiling, worst) ->
          match
            List.find_opt
              (fun (sb : Absint.Report.sem_bound) -> sb.sem_id = sem_id)
              r.sems
          with
          | None ->
            fail
              (Printf.sprintf "%s: lint sees sem %d but absint does not"
                 sc.name sem_id)
          | Some sb ->
            check bool
              (Printf.sprintf "%s sem %d: absint hold dominates lint CS"
                 sc.name sem_id)
              true
              (Absint.Itv.dominates sb.hold worst);
            check int
              (Printf.sprintf "%s sem %d: ceilings agree" sc.name sem_id)
              ceiling sb.ceiling)
        (Lint.Blocking_terms.per_sem ctx);
      (* under zero kernel cost the abstract blocking terms must
         dominate lint's exact ones rank by rank *)
      let rz = Absint.Report.analyze ~cost:Sim.Cost.zero sc in
      let abs_b = Absint.Report.blocking_terms rz in
      let lint_b = Lint.Blocking_terms.blocking_terms ctx in
      Array.iteri
        (fun i lb ->
          check bool
            (Printf.sprintf "%s B%d: absint >= lint" sc.name i)
            true
            (abs_b.(i) >= lb))
        lint_b)
    (Workload.Scenario.all ())

(* ------------------------------------------------------------------ *)
(* cross-validation: absint contains what the simulator observes *)

(* Per-job running time from the trace: CPU actually consumed between a
   job's release and its completion, accumulated across preemptions
   from the context-switch chain. *)
let observed_job_times entries =
  let running = ref None and last = ref 0 in
  let acc : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let jobs = ref [] in
  let credit now =
    match !running with
    | Some tid when Hashtbl.mem acc tid ->
      Hashtbl.replace acc tid (Hashtbl.find acc tid + (now - !last))
    | _ -> ()
  in
  List.iter
    (fun (st : Sim.Trace.stamped) ->
      match st.entry with
      | Sim.Trace.Job_release { tid; _ } -> Hashtbl.replace acc tid 0
      | Sim.Trace.Context_switch { to_tid; _ } ->
        credit st.at;
        running := to_tid;
        last := st.at
      | Sim.Trace.Job_complete { tid; _ } ->
        credit st.at;
        last := st.at;
        (match Hashtbl.find_opt acc tid with
        | Some t ->
          jobs := (tid, t) :: !jobs;
          Hashtbl.remove acc tid
        | None -> ())
      | _ -> ())
    entries;
  !jobs

let test_sim_containment () =
  List.iter
    (fun name ->
      let sc = Option.get (Workload.Scenario.make name) in
      let r = Absint.Report.analyze ~cost:Sim.Cost.zero sc in
      let rank_of_tid =
        let tasks = Model.Taskset.tasks sc.taskset in
        fun tid ->
          let rec find i =
            if i >= Array.length tasks then None
            else if tasks.(i).Model.Task.id = tid then Some i
            else find (i + 1)
          in
          find 0
      in
      let k =
        Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset:sc.taskset
          ~programs:sc.programs ()
      in
      Kernel.run k ~until:(ms 200);
      let jobs =
        observed_job_times (Sim.Trace.entries (Kernel.trace k))
      in
      check bool (name ^ ": some jobs completed") true (jobs <> []);
      List.iter
        (fun (tid, t) ->
          match rank_of_tid tid with
          | None -> ()
          | Some rank ->
            let exec = r.tasks.(rank).summary.exec in
            check bool
              (Printf.sprintf
                 "%s tau%d: observed job time %dns within %s" name tid t
                 (Absint.Itv.to_string exec))
              true
              (t >= exec.Absint.Itv.lo && Absint.Itv.dominates exec t))
        jobs)
    [ "table2"; "engine"; "voice"; "avionics" ]

(* ------------------------------------------------------------------ *)
(* cross-validation: absint dominates the model checker's view *)

let test_mc_domination () =
  List.iter
    (fun name ->
      let sc = Option.get (Workload.Scenario.make name) in
      let r = Absint.Report.analyze ~cost:Sim.Cost.zero sc in
      let m = Mc.Machine.of_scenario sc in
      (* (i) demand: the compiled model's per-task compute total is a
         concrete execution the abstract demand must contain *)
      Array.iter
        (fun (t : Mc.Machine.mtask) ->
          let total =
            Array.fold_left
              (fun acc i ->
                match i with Mc.Machine.ICompute w -> acc + w | _ -> acc)
              0 t.code
          in
          let exec = r.tasks.(t.idx).summary.exec in
          check bool
            (Printf.sprintf "%s %s: exec contains the compiled compute sum"
               name t.task_name)
            true
            (exec.Absint.Itv.lo <= total && Absint.Itv.dominates exec total))
        m.tasks)
    [ "engine"; "voice" ];
  (* (ii) responses: RTA fed with the absint blocking terms must bound
     every response the checker can provoke within its horizon *)
  let sc = Option.get (Workload.Scenario.make "engine") in
  let r = Absint.Report.analyze ~cost:Sim.Cost.zero sc in
  let blocking = Absint.Report.blocking_terms r in
  let m = Mc.Machine.of_scenario sc in
  let bounds =
    { Mc.Explorer.horizon = ms 40; max_states = 20_000; max_depth = 2_000 }
  in
  let res = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
  let rows =
    Array.map
      (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
      (Model.Taskset.tasks sc.taskset)
  in
  Array.iteri
    (fun i _ ->
      match Analysis.Rta.response_time ~blocking ~tasks:rows i with
      | None -> ()
      | Some bound ->
        check bool
          (Printf.sprintf
             "engine rank %d: MC response %dns within RTA+absint %dns" i
             res.max_response.(i) bound)
          true
          (res.max_response.(i) <= bound))
    rows

(* ------------------------------------------------------------------ *)
(* peak-live block bounds *)

let test_peak_live () =
  let open Program in
  let p = Objects.pool ~block_bytes:32 ~capacity:4 () in
  let r =
    analyze_zero
      [
        [ alloc p; alloc p; compute (us 10); free p; free p; alloc p; free p ];
        [ alloc p; compute (us 5); free p ];
      ]
  in
  (* the lower end is 0: any grant may be denied by a concurrently
     exhausted pool, so only the upper end is a guarantee *)
  check itv "tau1 peaks at two live blocks" (Absint.Itv.range 0 2)
    (List.assoc p.Types.pool_id r.tasks.(0).summary.peak_live);
  check itv "tau2 peaks at one" (Absint.Itv.range 0 1)
    (List.assoc p.Types.pool_id r.tasks.(1).summary.peak_live);
  (match r.pools with
  | [ pb ] ->
    check int "capacity derived" 4 pb.capacity;
    check int "block bytes derived" 32 pb.block_bytes;
    (* pool-wide bound: preemption can park every task at its peak *)
    check itv "pool bound sums the per-task peaks" (Absint.Itv.range 0 3)
      pb.peak
  | l -> failf "expected one pool bound, got %d" (List.length l));
  check int "a covered pool raises no diagnostic" 0
    (List.length (diags_with "pool-sizing" r));
  (* kernel charges: each alloc/free costs syscall entry + pool admin *)
  let c = Sim.Cost.m68040 in
  let r2 =
    Absint.Report.analyze ~cost:c
      (scenario_of [ [ alloc p; compute (us 100); free p ] ])
  in
  check itv "alloc and free are charged"
    (Absint.Itv.const (us 100 + (2 * (c.syscall_entry + c.pool_admin))))
    r2.tasks.(0).summary.exec;
  (* a per-task peak above capacity is a certain denial: error *)
  let tiny = Objects.pool ~block_bytes:16 ~capacity:1 () in
  let r3 =
    analyze_zero [ [ alloc tiny; alloc tiny; free tiny; free tiny ] ]
  in
  check bool "oversubscribed pool is an error" true
    (List.exists
       (fun (d : Lint.Diag.t) -> d.severity = Lint.Diag.Error)
       (diags_with "pool-sizing" r3));
  (* summed peaks above capacity across preempting tasks: warning *)
  let shared = Objects.pool ~block_bytes:16 ~capacity:2 () in
  let two = [ alloc shared; alloc shared; free shared; free shared ] in
  let r4 = analyze_zero [ two; two ] in
  check bool "combined oversubscription warns" true
    (List.exists
       (fun (d : Lint.Diag.t) -> d.severity = Lint.Diag.Warning)
       (diags_with "pool-sizing" r4))

(* ------------------------------------------------------------------ *)
(* generated WCETs are exactly the derived bound *)

(* The generator prices each segment with [Charge.hi] and absint
   derives the exec bound from the same charges, so the two agree to
   the nanosecond — not merely declared >= derived, which is all the
   wcet-declaration check (and the campaign's validity oracle) sees. *)
let test_generated_wcet_is_exact () =
  List.iter
    (fun seed ->
      List.iter
        (fun spec ->
          let r = Absint.Report.analyze (Workload.Generator.realize spec) in
          Array.iter
            (fun (tb : Absint.Report.task_bound) ->
              check (option int)
                (Printf.sprintf "seed %d %s tau%d" seed r.scenario_name tb.task.id)
                (Some tb.task.wcet)
                (Absint.Itv.hi_int tb.summary.exec))
            r.tasks)
        (Workload.Generator.scenario_specs ~seed ~count:40 ()))
    [ 1; 42; 7 ]

(* ------------------------------------------------------------------ *)
(* the failing demos *)

let test_under_declared_demo () =
  let r =
    Absint.Report.analyze (Workload.Scenario.under_declared_wcet ())
  in
  check bool "analyze fails" true (Absint.Report.errors r > 0);
  check int "exactly the liar is flagged" 1
    (List.length (diags_with "wcet-declaration" r));
  (match diags_with "wcet-declaration" r with
  | [ d ] -> check (option int) "on task 2" (Some 2) d.task
  | _ -> fail "expected one finding")

let test_over_budget_demo () =
  let sc = Workload.Scenario.over_budget () in
  let r = Absint.Report.analyze sc in
  check bool "analyze fails" true (Absint.Report.errors r > 0);
  check int "with a budget error" 1 (List.length (diags_with "budget" r));
  check bool "derived footprint really is over 128 KB" true
    (r.total_bytes > snd Footprint.envelope);
  (* a budget large enough to hold it turns the error into the
     envelope note *)
  let r =
    Absint.Report.analyze ~budget_bytes:1_000_000
      (Workload.Scenario.over_budget ())
  in
  check int "no error under a 1 MB budget" 0 (Absint.Report.errors r);
  check int "but the envelope note fires" 1
    (List.length (diags_with "envelope" r))

(* ------------------------------------------------------------------ *)
(* derived footprint *)

let test_footprint_derivation () =
  let sc = Option.get (Workload.Scenario.make "engine") in
  let r = Absint.Report.analyze sc in
  let c = r.config in
  check int "threads = taskset size" 12 c.Footprint.threads;
  check int "one semaphore" 1 c.Footprint.semaphores;
  check int "one wait queue" 1 c.Footprint.condvars;
  check (list (pair int int)) "no mailboxes" [] c.Footprint.mailboxes;
  check (list (pair int int)) "the crank state message" [ (3, 2) ]
    c.Footprint.state_messages;
  check int "release clock only" 1 c.Footprint.timers;
  check int "stack sized for one nesting level"
    (Absint.Memory.stack_base_bytes + Absint.Memory.stack_frame_bytes)
    c.Footprint.stack_bytes_per_thread;
  (* voice routes frames through a mailbox: capacity and the largest
     payload actually sent must both be derived *)
  let r = Absint.Report.analyze (Option.get (Workload.Scenario.make "voice")) in
  check (list (pair int int)) "voice tx queue" [ (8, 3) ]
    r.config.Footprint.mailboxes;
  (* nesting depth drives the stack: two held locks = two frames *)
  let a = Objects.sem () and b = Objects.sem () in
  let open Program in
  let r =
    analyze_zero
      [ [ acquire a; acquire b; compute (us 10); release b; release a ] ]
  in
  check int "two frames of stack"
    (Absint.Memory.stack_base_bytes + (2 * Absint.Memory.stack_frame_bytes))
    r.config.Footprint.stack_bytes_per_thread;
  (* a task that sleeps needs a timer beside the release clock *)
  let r = analyze_zero [ [ delay (us 100) ]; [ compute (us 10) ] ] in
  check int "release clock + one sleeper" 2 r.config.Footprint.timers

let suite =
  [
    test_case "interval domain" `Quick test_itv;
    test_case "pure compute and kernel charges" `Quick test_pure_compute;
    test_case "suspension bounds" `Quick test_suspension;
    test_case "holds and the nested-acquire fixpoint" `Quick
      test_holds_and_fixpoint;
    test_case "widening on a cyclic lock order" `Quick test_widening_on_cycle;
    test_case "unbounded hold warning" `Quick test_unbounded_hold_warning;
    test_case "presets analyze clean" `Quick test_presets_clean;
    test_case "absint dominates the lint extraction" `Quick
      test_holds_dominate_lint;
    test_case "absint contains simulated execution" `Quick
      test_sim_containment;
    test_case "absint dominates the model checker" `Quick test_mc_domination;
    test_case "peak-live block bounds" `Quick test_peak_live;
    test_case "generated WCETs equal the derived bound" `Quick
      test_generated_wcet_is_exact;
    test_case "under-declared WCET demo fails" `Quick test_under_declared_demo;
    test_case "over-budget demo fails" `Quick test_over_budget_demo;
    test_case "footprint derivation" `Quick test_footprint_derivation;
  ]
