(** The resilience report: replay a scenario under its fault plan and
    score what the enforcement layer saw.

    Each run becomes one cell: how many deadline misses, budget
    overruns, kills and sheds the run produced, how long after the
    first fault activation the kernel first *detected* anything
    (budget-exhaustion or deadline-miss policy firing), whether the
    trace stayed identical to the unfaulted baseline — and which
    static predictions the faults falsified.  Falsification is judged
    against the same analyses the rest of the toolchain trusts: the
    response-time bounds of {!Analysis.Rta} (fed with
    [Lint.Blocking_terms]) and the per-job demand bounds of
    {!Absint.Report}.  A fault plan that makes an analytically
    "schedulable" task miss, or a job consume more than its derived
    demand bound, has falsified exactly the prediction a deployed
    system would have been certified on. *)

type prediction = {
  p_source : string;  (** ["rta"] or ["absint"] *)
  p_task : int;  (** task id the prediction was about *)
  p_claim : string;  (** what the analysis predicted *)
  p_observed : string;  (** what the injected run actually did *)
}

type cell = {
  c_label : string;
  c_plan : Plan.t;
  c_misses : int;
  c_overruns : int;
  c_kills : int;
  c_sheds : int;
  c_jobs : int;  (** jobs completed across all tasks *)
  c_first_activation : Model.Time.t option;
  c_first_detection : Model.Time.t option;
      (** first budget-overrun or miss-policy detection, from
          [Kernel.enforcement_stats] *)
  c_detection_latency : Model.Time.t option;
      (** detection minus activation, when both exist *)
  c_matches_baseline : bool;
      (** trace entries, busy time and context switches all equal the
          unfaulted, enforcement-free baseline *)
  c_falsified : prediction list;
}

type t = {
  r_scenario : string;
  r_sched : string;
  r_seed : int;
  r_horizon : Model.Time.t;
  r_cells : cell list;
      (** first cell is always the empty plan (label ["no-fault"]) run
          with enforcement installed — the differential guard *)
}

val run : Inject.config -> t
(** Replay [cfg.scenario] unfaulted (the baseline), then under the
    empty plan with enforcement (the ["no-fault"] cell) and, unless it
    is empty, under [cfg.plan] (labelled with its rendering). *)

val demand_excess :
  bound:(Model.Time.t -> Model.Time.t) ->
  Absint.Report.t ->
  Emeralds.Kernel.t ->
  (Model.Task.t * Model.Time.t * Model.Time.t) list
(** [(task, used, limit)] in RM order for each task whose worst
    per-job demand in run [k] (banked enforcement figures joined with
    the trace's [Budget_overrun] entries) exceeds [limit = bound hi],
    [hi] its finite absint demand bound.  [inject] passes [Fun.id]; the
    [demand] oracle halves [hi] under its absint-demand ablation. *)

val violations : t -> bool
(** Any cell with misses, overruns, kills or sheds — the failed
    verdict of {!doc}. *)

val doc : t -> Util.Doc.t
(** The [inject] report: per cell its counts, detection latency and
    falsified predictions as text or JSON; in SARIF one result per
    detected-fault cell (warning), per falsified prediction (error),
    and per clean cell (note).  Failed on {!violations}. *)

(** {1 Fabric scoring}

    Pure scoring data for a multikernel fabric run; assembled by
    [lib/fabric] (this library never touches the bus), rendered and
    judged here so fabric reports share the single-node vocabulary. *)

type net_score = {
  n_nodes : int;  (** stations in the fabric *)
  n_surviving : int;  (** stations alive at the end of the run *)
  n_crashes : int;  (** node crashes that fired *)
  n_presuspected : int;
      (** crashes of a node a live station already suspected, say after
          dropped heartbeats: they have no detection latency *)
  n_migrated : int;  (** tasks re-admitted on another node *)
  n_shed : int;
      (** tasks dropped during failover because every target's RTA
          re-check failed (Koren–Shasha fallback) *)
  n_lost : int;
      (** tasks of the initial assignment that no live node holds at
          the end of the run and that were not shed: lost in a
          transfer, or left on a crashed node *)
  n_e2e_misses : int;
      (** deadline misses on surviving shards {e after} the last
          failover completed — the graceful-degradation criterion *)
  n_frames : int;  (** frames transmitted on the wire *)
  n_dropped : int;  (** frames lost to the wire fault *)
  n_corrupt : int;  (** frames discarded by receiver checksum *)
  n_retries : int;  (** reliable-layer retransmissions *)
  n_timeouts : int;  (** sends that exhausted their retry budget *)
  n_retry_amplification : float;
      (** transmissions per unique application frame: 1.0 on a clean
          wire, grows under storm *)
  n_bus_utilization : float;  (** bus busy time / elapsed horizon *)
  n_detect_latency : Model.Time.t option;
      (** crash to the first suspicion at or after it, worst over the
          crashes not already suspected *)
  n_failover_latency : Model.Time.t option;
      (** crash to the last re-admission of the failover that started
          at or after it, worst over the crashes; [None] when a crash
          has no such failover *)
  n_failover_bound : Model.Time.t option;
      (** the static migration-cost bound the observed latency must
          not exceed — the Quest-V predictability claim *)
}

val net_failures : net_score -> Lint.Sarif.result list
(** The fabric verdict, read by every report of a scorecard: errors for
    an observed failover latency over the static bound
    ([failover-bound-exceeded]), crashes with no observed failover
    ([failover-not-observed]), post-failover deadline misses
    ([e2e-miss-after-failover]) and lost tasks ([task-lost]), then a
    warning for delivery timeouts or shed tasks ([fabric-degraded]).
    Empty when the run was clean. *)

val net_ok : net_score -> bool
(** Degradation was graceful: {!net_failures} has no error. *)

val render_net : net_score -> string

val net_to_json : net_score -> string

val net_to_sarif : net_score -> Lint.Sarif.result list
(** {!net_failures}, or one [fabric-clean] note when it is empty. *)

val net_doc : net_score -> Util.Doc.t
(** The [fabric] report: {!render_net}, {!net_to_json} and
    {!net_to_sarif} as documents; failed on any {!net_failures} entry
    (a warning too) or on any crash, dropped or corrupted frame. *)
