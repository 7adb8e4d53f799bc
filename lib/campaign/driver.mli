(** The campaign loop: generate, evaluate, shrink, aggregate. *)

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
}

val default_config : config
(** seed 7, count 100, all oracles, no ablation, no shrinking. *)

type report_finding = {
  finding : Oracle.finding;
  shrunk : Shrink.outcome option;
      (** with [shrink], the shrinker's outcome, shrunk spec included *)
}

type summary = {
  config : config;
  scenarios : int;
  findings : report_finding list;
  per_oracle : (Oracle.key * int) list;
  stat_hist : Util.Hist.t;
  sim_hist : Util.Hist.t;
  mc_hist : Util.Hist.t;
  mc_expansions : int;
  mc_truncated : int;
  metrics : Obs.Metrics.t option;
  elapsed_s : float;
}

val spec_streams : config -> Workload.Generator.spec list
(** The exact spec list a config evaluates; spec [i] depends only on
    [seed] and the generation parameters, never on [count]. *)

val run : config -> summary
(** Evaluate every spec; an exception inside one evaluation becomes a
    [Crash] finding rather than aborting the campaign. *)

val falsifications : summary -> int
