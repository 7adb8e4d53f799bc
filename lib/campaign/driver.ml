(* The campaign loop: generate [count] scenario specs from split
   streams of [seed], evaluate each against the oracle lattice, shrink
   what falsifies, and aggregate per-phase timing and kernel-event
   statistics. *)

type config = {
  seed : int;
  count : int;
  family : Workload.Generator.family option;
  n_tasks : int option;
  target_u : float option;
  oracles : Oracle.key list;
  ablation : Oracle.ablation;
  shrink : bool;
  collect_metrics : bool;
  progress : (int -> Oracle.finding -> unit) option;
      (** called as each falsification is found, for streaming CLIs *)
}

let default_config =
  {
    seed = 7;
    count = 100;
    family = None;
    n_tasks = None;
    target_u = None;
    oracles = Oracle.all;
    ablation = Oracle.No_ablation;
    shrink = false;
    collect_metrics = false;
    progress = None;
  }

type report_finding = {
  finding : Oracle.finding;
  shrunk : Shrink.outcome option;
}

type summary = {
  config : config;
  scenarios : int;
  findings : report_finding list;  (** in discovery order *)
  per_oracle : (Oracle.key * int) list;  (** firing counts, all keys *)
  stat_hist : Util.Hist.t;  (** static-phase wall time per scenario, us *)
  sim_hist : Util.Hist.t;
  mc_hist : Util.Hist.t;
  mc_expansions : int;
  mc_truncated : int;  (** scenarios whose state-space search hit a bound *)
  metrics : Obs.Metrics.t option;  (** merged over all enforced runs *)
  elapsed_s : float;
}

let spec_streams (c : config) =
  Workload.Generator.scenario_specs ~seed:c.seed ~count:c.count
    ?family:c.family ?n:c.n_tasks ?target_u:c.target_u ()

let run (c : config) =
  let t0 = Eval.now_us () in
  let specs = spec_streams c in
  let findings = ref [] in
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let stat_hist = Util.Hist.create ()
  and sim_hist = Util.Hist.create ()
  and mc_hist = Util.Hist.create () in
  let mc_expansions = ref 0 and mc_truncated = ref 0 in
  let metrics = ref None in
  let emit index (f : Oracle.finding) =
    bump f.oracle;
    (match c.progress with Some p -> p index f | None -> ());
    let shrunk =
      if c.shrink && f.oracle <> Oracle.Validity then
        Some
          (Shrink.run ~oracle:f.oracle
             ~ablation:c.ablation ~index (List.nth specs index))
      else None
    in
    findings := { finding = f; shrunk } :: !findings
  in
  List.iteri
    (fun index spec ->
      match
        Eval.run ~oracles:c.oracles ~ablation:c.ablation
          ~collect_metrics:c.collect_metrics ~index spec
      with
      | r ->
        Util.Hist.observe stat_hist r.stat_us;
        Util.Hist.observe sim_hist r.sim_us;
        Util.Hist.observe mc_hist r.mc_us;
        mc_expansions := !mc_expansions + r.mc_expansions;
        if r.mc_truncated then incr mc_truncated;
        (match r.metrics with
        | Some m ->
          metrics :=
            Some
              (match !metrics with
              | None -> m
              | Some acc -> Obs.Metrics.merge acc m)
        | None -> ());
        List.iter (emit index) r.findings
      | exception e ->
        emit index
          {
            Oracle.oracle = Oracle.Crash;
            scenario = (List.nth specs index).s_name;
            index;
            task = None;
            message = Printexc.to_string e;
          })
    specs;
  {
    config = c;
    scenarios = c.count;
    findings = List.rev !findings;
    per_oracle =
      List.map
        (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt counts k)))
        Oracle.all;
    stat_hist;
    sim_hist;
    mc_hist;
    mc_expansions = !mc_expansions;
    mc_truncated = !mc_truncated;
    metrics = !metrics;
    elapsed_s = float_of_int (Eval.since_us t0) /. 1e6;
  }

let falsifications s = List.length s.findings
