(* The differential soundness campaign (lib/campaign): oracle lattice
   evaluation, the driver loop, falsification shrinking, the SARIF
   report, and — most importantly — replay of the generated scenarios
   whose falsifications root-caused real kernel and analysis bugs. *)

open Alcotest

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- oracle vocabulary ---------------------------------------------- *)

let test_oracle_names () =
  List.iter
    (fun k ->
      check bool "name round-trips" true
        (Campaign.Oracle.of_string (Campaign.Oracle.name k) = Some k))
    Campaign.Oracle.all;
  check bool "unknown name rejected" true
    (Campaign.Oracle.of_string "bogus" = None);
  (match Campaign.Oracle.parse_list "all" with
  | Ok l -> check int "all selects every oracle" (List.length Campaign.Oracle.all) (List.length l)
  | Error e -> failf "parse_list all: %s" e);
  (match Campaign.Oracle.parse_list "rta-sim,ident" with
  | Ok [ a; b ] ->
    check string "first" "rta-sim" (Campaign.Oracle.name a);
    check string "second" "ident" (Campaign.Oracle.name b)
  | Ok _ | Error _ -> fail "two-oracle list");
  match Campaign.Oracle.parse_list "rta-sim,nope" with
  | Error _ -> ()
  | Ok _ -> fail "bad oracle accepted"

(* --- falsification replay ------------------------------------------- *)

(* The seeded 10k campaign ([--seed 42]) falsified these six scenarios
   before this PR's fixes: gen-4918 hit the dispatch stall (a thread
   that blocked and was re-selected before its dispatch event fired
   never regained [Running]); gen-2468 hit the missing deadline
   re-inheritance at semaphore hand-off (model-checked PI violation);
   gen-2515/6758/7463/7568 hit the under-counted blocking of
   back-to-back critical-section chains (RTA bound below simulated
   response).  All must stay clean under the full oracle lattice. *)
let test_replay_falsified () =
  let specs = Workload.Generator.scenario_specs ~seed:42 ~count:7569 () in
  List.iter
    (fun idx ->
      let spec = List.nth specs idx in
      let e = Campaign.Eval.run ~index:idx spec in
      List.iter
        (fun (f : Campaign.Oracle.finding) ->
          failf "gen-%d regressed: %s %s" idx
            (Campaign.Oracle.name f.oracle)
            f.message)
        e.findings)
    [ 2468; 2515; 4918; 6758; 7463; 7568 ]

(* --- the driver loop ------------------------------------------------- *)

let small_run =
  lazy
    (Campaign.Driver.run
       { Campaign.Driver.default_config with seed = 7; count = 25 })

let test_small_campaign_clean () =
  let s = Lazy.force small_run in
  check int "all scenarios evaluated" 25 s.scenarios;
  check int "no falsifications" 0 (Campaign.Driver.falsifications s);
  check int "timing histogram covers every scenario" 25
    (Util.Hist.count s.stat_hist);
  check bool "per-oracle table covers the lattice" true
    (List.length s.per_oracle = List.length Campaign.Oracle.all)

let test_spec_streams_split_invariant () =
  let cfg = { Campaign.Driver.default_config with seed = 11; count = 40 } in
  let long = Campaign.Driver.spec_streams cfg in
  let short = Campaign.Driver.spec_streams { cfg with count = 12 } in
  List.iteri
    (fun i (s : Workload.Generator.spec) ->
      check string
        (Printf.sprintf "spec %d independent of count" i)
        s.s_name
        (List.nth long i).Workload.Generator.s_name)
    short

(* --- ablations: the campaign must detect seeded unsoundness ---------- *)

let ablated_run =
  lazy
    (Campaign.Driver.run
       {
         Campaign.Driver.default_config with
         seed = 42;
         count = 60;
         oracles = [ Campaign.Oracle.Validity; Campaign.Oracle.Demand ];
         ablation = Campaign.Oracle.Absint_demand;
       })

let test_ablation_detected () =
  let s = Lazy.force ablated_run in
  check bool "halved absint bounds are falsified" true
    (Campaign.Driver.falsifications s > 0);
  List.iter
    (fun (r : Campaign.Driver.report_finding) ->
      check bool "ablated finding hits the demand oracle" true
        (r.finding.oracle = Campaign.Oracle.Demand))
    s.findings

let test_rta_ablation_detected () =
  let s =
    Campaign.Driver.run
      {
        Campaign.Driver.default_config with
        seed = 42;
        count = 60;
        oracles = [ Campaign.Oracle.Validity; Campaign.Oracle.Rta_sim ];
        ablation = Campaign.Oracle.Rta_blocking;
      }
  in
  check bool "dropped blocking terms are falsified" true
    (Campaign.Driver.falsifications s > 0)

let test_mem_ablation_detected () =
  let s =
    Campaign.Driver.run
      {
        Campaign.Driver.default_config with
        seed = 42;
        count = 60;
        oracles = [ Campaign.Oracle.Validity; Campaign.Oracle.Mem ];
        ablation = Campaign.Oracle.Mem_peak;
      }
  in
  check bool "halved peak-live bounds are falsified" true
    (Campaign.Driver.falsifications s > 0);
  List.iter
    (fun (r : Campaign.Driver.report_finding) ->
      check bool "ablated finding hits the mem oracle" true
        (r.finding.oracle = Campaign.Oracle.Mem))
    s.findings

(* Half the declared budgets, still notify-only: every enforced run
   records overruns the plain run does not, and Ident must say so. *)
let test_ident_ablation_detected () =
  let s =
    Campaign.Driver.run
      {
        Campaign.Driver.default_config with
        seed = 42;
        count = 30;
        oracles = [ Campaign.Oracle.Validity; Campaign.Oracle.Ident ];
        ablation = Campaign.Oracle.Ident_budget;
      }
  in
  check int "every scenario diverges" 30 (Campaign.Driver.falsifications s);
  List.iter
    (fun (r : Campaign.Driver.report_finding) ->
      check bool "ablated finding hits the ident oracle" true
        (r.finding.oracle = Campaign.Oracle.Ident))
    s.findings

(* --- shrinking -------------------------------------------------------- *)

let test_shrink () =
  let s = Lazy.force ablated_run in
  match s.findings with
  | [] -> fail "ablated run produced no findings to shrink"
  | r :: _ ->
    let specs =
      Campaign.Driver.spec_streams { s.config with count = r.finding.index + 1 }
    in
    let spec = List.nth specs r.finding.index in
    let out =
      Campaign.Shrink.run ~oracle:r.finding.oracle
        ~ablation:Campaign.Oracle.Absint_demand ~index:r.finding.index spec
    in
    check bool "no growth" true
      (out.tasks_after <= out.tasks_before
      && out.segs_after <= out.segs_before);
    check bool "some evaluations spent" true (out.evals > 0);
    (* the shrunk spec must still falsify the same oracle *)
    let e =
      Campaign.Eval.run
        ~oracles:[ Campaign.Oracle.Validity; Campaign.Oracle.Demand ]
        ~ablation:Campaign.Oracle.Absint_demand ~index:r.finding.index out.spec
    in
    check bool "shrunk spec still falsifies" true
      (List.exists
         (fun (f : Campaign.Oracle.finding) -> f.oracle = r.finding.oracle)
         e.findings)

(* --- reports ---------------------------------------------------------- *)

let test_sarif_shape () =
  let clean = Lazy.force small_run in
  let sarif = Campaign.Report.to_sarif clean in
  check bool "sarif version" true (contains sarif {|"version":"2.1.0"|});
  List.iter
    (fun tool ->
      check bool (tool ^ " run present") true
        (contains sarif (Printf.sprintf {|"name":%S|} tool)))
    [ "emeralds-lint"; "emeralds-absint"; "emeralds-mc"; "emeralds-campaign" ];
  check bool "clean runs carry no results" true
    (not (contains sarif {|"ruleId":"campaign/|}));
  let bad = Lazy.force ablated_run in
  let sarif = Campaign.Report.to_sarif bad in
  check bool "falsifications become results" true
    (contains sarif {|"ruleId":"campaign/demand"|})

let test_json_and_text () =
  let s = Lazy.force small_run in
  let name (k, n) = (Campaign.Oracle.name k, Util.Json.Int n) in
  (match Util.Json.parse (Campaign.Report.to_json s) with
  | Ok (Obj ms) ->
    let field k = List.assoc_opt k ms in
    check bool "scenarios" true (field "scenarios" = Some (Int 25));
    check bool "falsifications" true (field "falsifications" = Some (Int 0));
    check bool "per_oracle" true
      (field "per_oracle" = Some (Obj (List.map name s.per_oracle)))
  | _ -> fail "the report is not a JSON object");
  let text = Campaign.Report.render_text s in
  check bool "text mentions scenario count" true (contains text "25");
  check bool "text mentions oracles" true (contains text "rta-sim");
  check bool "text shows the checker's throughput" true
    (contains text (Printf.sprintf "mc: %d expansions" s.mc_expansions)
    && contains text "expansions/s)")

(* A host clock stepped back between two reads: the stage duration
   [Driver.run] feeds its histograms is 0, not negative. *)
let test_clock_step_back () =
  let later = Campaign.Eval.now_us () + 60_000_000 in
  check int "start in the future gives 0" 0 (Campaign.Eval.since_us later);
  check bool "a past start is non-negative" true
    (Campaign.Eval.since_us (Campaign.Eval.now_us ()) >= 0)

(* -- Arrival series against one event per arrival ------------------ *)

(* A storm on an IRQ no generated source uses and a burst on a task,
   on whole milliseconds, where periodic releases fall too: ties that
   only the order rule decides. *)
let storm_irq = 63

let tie_plan tid : Fault.Plan.t =
  let ms = Model.Time.ms in
  [
    Irq_storm { irq = storm_irq; at = ms 1; count = max_int; spacing = ms 1 };
    Sporadic_burst { tid; at = ms 1; count = max_int; spacing = ms 5 };
  ]

(* The reference for [Eval.sporadic_observer] and [Fault.Inject]'s IRQ
   sources, storm and burst: the same draws from the same streams, each
   arrival queued by its own [trigger_job_at] or [raise_irq_at], in the
   order [Inject.run] sets them up (sporadic tasks, sources, plan). *)
let per_instant_observer (spec : Workload.Generator.spec)
    (sc : Workload.Scenario.t) ~horizon k =
  List.iter
    (fun (t : Workload.Generator.task_spec) ->
      if t.g_sporadic then begin
        let rng = Util.Rng.split (Util.Rng.create ~seed:9) (3000 + t.g_id) in
        let draw () = t.g_period + Util.Rng.int rng (max 1 (t.g_period / 4)) in
        let at = ref (draw ()) in
        while !at <= horizon do
          Emeralds.Kernel.trigger_job_at k ~at:!at ~tid:t.g_id;
          at := !at + draw ()
        done
      end)
    spec.s_tasks;
  let root = Util.Rng.create ~seed:9 in
  List.iteri
    (fun si (src : Workload.Scenario.irq_source) ->
      Emeralds.Kernel.register_irq k ~irq:src.irq ~signals:src.signals
        ~writes:src.writes
        ~handler:(fun () ->
          List.iter (Emeralds.Kernel.signal_waitq k) src.signals;
          List.iter
            (fun sm ->
              Emeralds.State_msg.write sm
                (Array.make (Emeralds.State_msg.words sm) 0))
            src.writes)
        ();
      let rng = Util.Rng.split root (1000 + si) in
      let at = ref 0 in
      while
        at :=
          !at
          + Util.Rng.int_in rng ~lo:src.min_interarrival
              ~hi:src.max_interarrival;
        !at <= horizon
      do
        Emeralds.Kernel.raise_irq_at k ~at:!at ~irq:src.irq
      done)
    sc.irq_sources;
  Emeralds.Kernel.register_irq k ~irq:storm_irq ~handler:ignore ();
  let every spacing f =
    let at = ref (Model.Time.ms 1) in
    while !at <= horizon do
      f !at;
      at := !at + spacing
    done
  in
  every (Model.Time.ms 1) (fun at ->
      Emeralds.Kernel.raise_irq_at k ~at ~irq:storm_irq);
  let tid = (List.hd spec.s_tasks).g_id in
  every (Model.Time.ms 5) (fun at -> Emeralds.Kernel.trigger_job_at k ~at ~tid)

let test_series_match_per_instant () =
  let sporadic = ref 0 and sourced = ref 0 in
  List.iter
    (fun (spec : Workload.Generator.spec) ->
      let maxp =
        List.fold_left
          (fun a (t : Workload.Generator.task_spec) -> max a t.g_period)
          0 spec.s_tasks
      in
      let horizon = min (2 * maxp) (Model.Time.ms 1000) in
      let run ?plan sc observer =
        let cfg =
          Fault.Inject.default_config ~scenario:sc ~horizon ~seed:9 ?plan ()
        in
        Sim.Trace.signature
          (Emeralds.Kernel.trace
             (Fault.Inject.run { cfg with observer = Some observer }).kernel)
      in
      let series =
        run (Workload.Generator.realize spec)
          ~plan:(tie_plan (List.hd spec.s_tasks).g_id)
          (Campaign.Eval.sporadic_observer spec ~horizon)
      in
      let sc = Workload.Generator.realize spec in
      let reference =
        run { sc with irq_sources = [] } (per_instant_observer spec sc ~horizon)
      in
      check bool (spec.s_name ^ ": same trace") true (series = reference);
      if List.exists (fun (t : Workload.Generator.task_spec) -> t.g_sporadic)
           spec.s_tasks
      then incr sporadic;
      if sc.irq_sources <> [] then incr sourced)
    (Workload.Generator.scenario_specs ~seed:42 ~count:200 ());
  check bool "specs with sporadic tasks" true (!sporadic >= 30);
  check bool "specs with IRQ sources" true (!sourced >= 30)

(* --- one implementation per claim ------------------------------------ *)

(* Task 1 leaks its pool-1 block every job and balances pool 2: lint
   predicts a leak of pool 1 only, so the kernel's clean pool-2 record
   is no disagreement.  Only the validity finding for the leak
   remains. *)
let test_mem_leak_per_pool () =
  let open Workload.Generator in
  let ms = Model.Time.ms and us = Model.Time.us in
  let spec =
    {
      s_name = "two-pools";
      s_family = Generic;
      s_locks = 0;
      s_waitqs = 0;
      s_mailboxes = [];
      s_state_msgs = [];
      s_pools = [ (4, 32); (4, 32) ];
      s_tasks =
        [
          {
            g_id = 1;
            g_period = ms 10;
            g_sporadic = false;
            g_segs = [ S_alloc 0; S_alloc 1; S_compute (us 200); S_free 1 ];
          };
          { g_id = 2; g_period = ms 20; g_sporadic = false;
            g_segs = [ S_compute (us 500) ] };
        ];
      s_irqs = [];
    }
  in
  let e =
    Campaign.Eval.run ~oracles:[ Campaign.Oracle.Validity; Mem ] ~index:0 spec
  in
  match e.findings with
  | [ f ] ->
    check string "validity" "validity" (Campaign.Oracle.name f.oracle);
    check bool "the pool-1 leak" true
      (contains f.message "1 block(s) of pool 1 still held at job end")
  | fs ->
    failf "%d findings: %s" (List.length fs)
      (String.concat "; "
         (List.map (fun (f : Campaign.Oracle.finding) -> f.message) fs))

(* The blame oracle's findings under halved bounds are exactly the
   verdicts [Eval.blame_violations] gives on the enforced run, rebuilt
   here from public functions; the seed-42 stream's first scenarios
   exceed some halved term. *)
let test_blame_verdicts_match_oracle () =
  let ablation = Campaign.Oracle.Blame_bounds in
  let total = ref 0 in
  List.iteri
    (fun index (spec : Workload.Generator.spec) ->
      let oracle =
        (Campaign.Eval.run ~oracles:[ Campaign.Oracle.Blame ] ~ablation ~index
           spec)
          .findings
        |> List.map (fun (f : Campaign.Oracle.finding) -> (f.task, f.message))
      in
      let sc = Workload.Generator.realize spec in
      let st = Campaign.Eval.statics ~ablation sc in
      let maxp =
        List.fold_left
          (fun a (t : Workload.Generator.task_spec) -> max a t.g_period)
          0 spec.s_tasks
      in
      let horizon = min (2 * maxp) (Model.Time.ms 1000) in
      let blame = Obs.Blame.create ~tasks:(Obs.Blame.of_taskset sc.taskset) () in
      let cfg =
        Fault.Inject.default_config ~scenario:(Workload.Generator.realize spec)
          ~horizon ~seed:9
          ~enforcement:
            {
              Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
              policy = Emeralds.Kernel.Notify_only;
              miss = Emeralds.Kernel.Miss_record;
              shed_one_in = None;
            }
          ()
      in
      let observer k =
        Campaign.Eval.sporadic_observer spec ~horizon k;
        Obs.Blame.attach blame (Emeralds.Kernel.probe k)
      in
      let k = (Fault.Inject.run { cfg with observer = Some observer }).kernel in
      let verdicts =
        List.concat_map
          (Campaign.Eval.blame_violations st (Emeralds.Kernel.trace k))
          (Obs.Blame.summaries blame)
        |> List.map (fun (v : Campaign.Eval.violation) ->
               (Some v.tid, v.message))
      in
      total := !total + List.length verdicts;
      check
        (list (pair (option int) string))
        (spec.s_name ^ ": oracle findings = verdicts")
        oracle verdicts)
    (Workload.Generator.scenario_specs ~seed:42 ~count:12 ());
  check bool "some halved term is exceeded" true (!total > 0)

let suite =
  [
    test_case "oracle names round-trip" `Quick test_oracle_names;
    test_case "falsified scenarios stay fixed" `Quick test_replay_falsified;
    test_case "small campaign runs clean" `Quick test_small_campaign_clean;
    test_case "spec stream is split-invariant" `Quick
      test_spec_streams_split_invariant;
    test_case "absint ablation is detected" `Quick test_ablation_detected;
    test_case "rta ablation is detected" `Quick test_rta_ablation_detected;
    test_case "mem ablation is detected" `Quick test_mem_ablation_detected;
    test_case "ident ablation is detected" `Quick test_ident_ablation_detected;
    test_case "falsifications shrink" `Quick test_shrink;
    test_case "sarif report shape" `Quick test_sarif_shape;
    test_case "json and text reports" `Quick test_json_and_text;
    test_case "a clock stepped back clamps to 0" `Quick test_clock_step_back;
    test_case "arrival series match one event per arrival" `Quick
      test_series_match_per_instant;
    test_case "mem: a leak is predicted per pool" `Quick test_mem_leak_per_pool;
    test_case "blame verdicts are the oracle's findings" `Quick
      test_blame_verdicts_match_oracle;
  ]
