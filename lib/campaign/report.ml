(* Campaign reporting: text for the terminal, JSON for scripts, and a
   multi-run SARIF 2.1.0 log routing each oracle's findings through
   the tool driver whose layer it indicts. *)

let pct h p = if Util.Hist.count h = 0 then 0 else Util.Hist.quantile h p

let pp_text ppf (s : Driver.summary) =
  Format.fprintf ppf "campaign: %d scenarios, seed %d%s@." s.scenarios
    s.config.seed
    (match s.config.ablation with
    | Oracle.No_ablation -> ""
    | a -> Printf.sprintf " [ablation %s]" (Oracle.ablation_name a));
  Format.fprintf ppf "  oracle      fired  claim@.";
  List.iter
    (fun (k, n) ->
      if List.mem k s.config.oracles || n > 0 then
        Format.fprintf ppf "  %-10s %5d  %s@." (Oracle.name k) n
          (Oracle.description k))
    s.per_oracle;
  List.iter
    (fun (r : Driver.report_finding) ->
      let f = r.finding in
      Format.fprintf ppf "  %s %s%s: %s@."
        (Oracle.name f.oracle) f.scenario
        (match f.task with
        | Some t -> Printf.sprintf " tau%d" t
        | None -> "")
        f.message;
      match r.shrunk with
      | Some sh ->
        Format.fprintf ppf
          "    shrunk %d->%d tasks, %d->%d segments (%d evals)@."
          sh.tasks_before sh.tasks_after sh.segs_before sh.segs_after
          sh.evals
      | None -> ())
    s.findings;
  Format.fprintf ppf
    "  time: %.1fs total; per scenario p50/p95 us: statics %d/%d sim %d/%d \
     mc %d/%d@."
    s.elapsed_s (pct s.stat_hist 0.5) (pct s.stat_hist 0.95)
    (pct s.sim_hist 0.5) (pct s.sim_hist 0.95) (pct s.mc_hist 0.5)
    (pct s.mc_hist 0.95);
  let mc_s = float_of_int (Util.Hist.sum s.mc_hist) /. 1e6 in
  Format.fprintf ppf "  mc: %d expansions, %d truncated searches, %.2fs%s@."
    s.mc_expansions s.mc_truncated mc_s
    (if mc_s > 0. then
       Printf.sprintf " (%.0f expansions/s)"
         (float_of_int s.mc_expansions /. mc_s)
     else "");
  (match s.metrics with
  | Some m -> Format.fprintf ppf "%a" Obs.Metrics.pp_summary m
  | None -> ());
  if s.findings = [] then
    Format.fprintf ppf "  all oracle claims held on every scenario@."

let render_text s = Format.asprintf "%a" pp_text s

let to_json (s : Driver.summary) =
  let open Util.Json in
  let finding (r : Driver.report_finding) =
    let f = r.finding in
    let pair a b = List [ Int a; Int b ] in
    Obj
      ([ ("oracle", String (Oracle.name f.oracle));
         ("scenario", String f.scenario); ("index", Int f.index) ]
      @ Option.fold f.task ~none:[] ~some:(fun t -> [ ("task", Int t) ])
      @ [ ("message", String f.message) ]
      @ Option.fold r.shrunk ~none:[] ~some:(fun (sh : Shrink.outcome) ->
            [ ( "shrunk",
                Obj
                  [ ("tasks", pair sh.tasks_before sh.tasks_after);
                    ("segments", pair sh.segs_before sh.segs_after);
                    ("evals", Int sh.evals) ] ) ]))
  in
  to_string
    (Obj
       [ ("scenarios", Int s.scenarios);
         ("falsifications", Int (Driver.falsifications s));
         ("seed", Int s.config.seed);
         ("ablation", String (Oracle.ablation_name s.config.ablation));
         ("elapsed_s", Fixed (3, s.elapsed_s));
         ( "per_oracle",
           Obj (List.map (fun (k, n) -> (Oracle.name k, Int n)) s.per_oracle) );
         ("findings", List (List.map finding s.findings));
         ( "mc",
           Obj [ ("expansions", Int s.mc_expansions);
                 ("truncated", Int s.mc_truncated) ] ) ])

(* SARIF routing: each finding is reported by the tool whose layer the
   falsified claim indicts, so CI annotations land on the right
   component.  All four runs are always present — an empty run is the
   positive statement that its oracles were evaluated and held. *)
let tool_of (k : Oracle.key) =
  match k with
  | Oracle.Validity -> "emeralds-lint"
  | Oracle.Demand | Oracle.Mem -> "emeralds-absint"
  | Oracle.Mc_props -> "emeralds-mc"
  | Oracle.Rta_sim | Oracle.Ident | Oracle.Rta_mc | Oracle.Blame
  | Oracle.Crash ->
    "emeralds-campaign"

let tools =
  [ "emeralds-lint"; "emeralds-absint"; "emeralds-mc"; "emeralds-campaign" ]

let to_sarif (s : Driver.summary) =
  let result_of (r : Driver.report_finding) =
    let f = r.finding in
    {
      Lint.Sarif.rule_id = "campaign/" ^ Oracle.name f.oracle;
      level = Lint.Sarif.Error;
      message =
        f.message
        ^ (match r.shrunk with
          | Some sh ->
            Printf.sprintf " [shrunk to %d tasks, %d segments]"
              sh.tasks_after sh.segs_after
          | None -> "");
      logical =
        Some
          (match f.task with
          | Some t -> Printf.sprintf "%s, task %d" f.scenario t
          | None -> f.scenario);
    }
  in
  let runs =
    List.map
      (fun tool ->
        Lint.Sarif.run ~tool_name:tool
          (List.filter_map
             (fun (r : Driver.report_finding) ->
               if tool_of r.finding.oracle = tool then Some (result_of r)
               else None)
             s.findings))
      tools
  in
  Lint.Sarif.render_log runs

let doc s =
  {
    Util.Doc.text = (fun () -> render_text s);
    json = (fun () -> to_json s ^ "\n");
    sarif = (fun () -> to_sarif s ^ "\n");
    failed = Driver.falsifications s > 0;
  }
