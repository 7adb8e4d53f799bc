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
  let json = Campaign.Report.to_json s in
  List.iter
    (fun needle -> check bool needle true (contains json needle))
    [ {|"scenarios": 25|}; {|"falsifications": 0|}; {|"per_oracle"|} ];
  let text = Campaign.Report.render_text s in
  check bool "text mentions scenario count" true (contains text "25");
  check bool "text mentions oracles" true (contains text "rta-sim")

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
  ]
