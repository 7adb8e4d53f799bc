(* Evaluate one generated scenario against the oracle lattice.

   Each oracle compares two independently built layers of the repo on
   one realization of the scenario.  The static terms the RM oracles
   check against — RTA eligibility, the Table-1-inflated fixpoint, the
   lint blocking terms and the per-component blame bounds — are
   derived only here; the CLI's [explain] reads them and the blame
   verdicts from here too. *)

type t = {
  findings : Oracle.finding list;
  stat_us : int;  (** wall time of lint + absint + RTA, microseconds *)
  sim_us : int;  (** wall time of the two simulations *)
  mc_us : int;  (** wall time of the model checker *)
  mc_expansions : int;
  mc_truncated : bool;
  metrics : Obs.Metrics.t option;  (** folded from the enforced trace *)
}

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Clamped at 0: a host clock stepped back between two reads must not
   hand [Util.Hist.observe] a negative sample. *)
let since_us t0 = max 0 (now_us () - t0)

let norm_sig k = Sim.Trace.signature (Emeralds.Kernel.trace k)

(* RTA's bounds only claim anything for tasks whose programs the
   response-time recurrence models: computes and bounded critical
   sections.  Open-ended blocking (waits, receives, delays) is outside
   the claim. *)
let rta_eligible (ctx : Lint.Ctx.t) =
  Array.map
    (fun (tp : Lint.Ctx.task_prog) ->
      let ok = ref true in
      Emeralds.Program.iter_leaves
        (function
          | Emeralds.Types.Wait _ | Timed_wait _ | Recv _ | Send _ | Delay _ ->
            ok := false
          | _ -> ())
        tp.prog;
      !ok)
    ctx.tasks

type statics = {
  scenario : Workload.Scenario.t;
  ablation : Oracle.ablation;
  absint : Absint.Report.t;
  blocking : Model.Time.t array;
  rows : (int * int * int) array;
  rta : Model.Time.t option array;
  eligible : bool array;
}

let statics ?(ablation = Oracle.No_ablation) (sc : Workload.Scenario.t) =
  (* cfg ablations weaken the abstract interpreter itself (skip the
     loop-bound multiplication / follow one branch arm); the resulting
     under-approximate bounds must be caught by Demand and Mem *)
  let lesion =
    match ablation with
    | Oracle.Cfg_loop -> Some Absint.Exec.Drop_loop_mult
    | Oracle.Cfg_join -> Some Absint.Exec.Drop_branch_join
    | _ -> None
  in
  let absint = Absint.Report.analyze ?lesion sc in
  let blocking = Lint.Blocking_terms.blocking_terms absint.ctx in
  let blocking =
    (* ablation: pretend blocking is free — RTA bounds shrink below
       what the kernel actually delivers, which the campaign must
       catch *)
    if ablation = Oracle.Rta_blocking then Array.map (fun _ -> 0) blocking
    else blocking
  in
  let rows =
    Analysis.Overhead.inflate ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
      sc.taskset
  in
  let rta =
    Array.init (Array.length rows) (fun i ->
        Analysis.Rta.response_time ~blocking ~tasks:rows i)
  in
  let eligible = rta_eligible absint.ctx in
  { scenario = sc; ablation; absint; blocking; rows; rta; eligible }

type term = Exec | Interference of int | Blocking | Overhead

let blame_terms st ~rank (s : Obs.Blame.task_summary) =
  (* own execution vs the absint demand bound (absint's tasks are in RM
     order too) *)
  let exec =
    match Absint.Itv.hi_int st.absint.tasks.(rank).summary.exec with
    | Some hi -> [ (Exec, s.s_max_exec, hi) ]
    | None -> []
  in
  (* per-rank interference vs the RTA decomposition (one extra job per
     rank covers release-aligned carry-in) *)
  let interference =
    match Analysis.Rta.decompose ~blocking:st.blocking ~tasks:st.rows rank with
    | Some dec ->
      List.map
        (fun (j, v) ->
          let _, _, cj = st.rows.(j) in
          (Interference j, v, dec.Analysis.Rta.dec_interference.(j) + cj))
        s.s_max_interference
    | None -> []
  in
  (* total blocking vs the lint-derived blocking term *)
  let blocking = [ (Blocking, s.s_max_blocking_total, st.blocking.(rank)) ] in
  (* ambient kernel overhead vs the Table-1 budget at the RTA fixpoint,
     priced with the observed IRQ count *)
  let overhead =
    match st.rta.(rank) with
    | Some rstar ->
      let sc = st.scenario in
      [
        ( Overhead,
          s.s_max_overhead_total,
          Analysis.Overhead.job_budget ~cost:Sim.Cost.m68040
            ~spec:Emeralds.Sched.Rm ~taskset:sc.taskset
            ~programs:(Array.map sc.programs (Model.Taskset.tasks sc.taskset))
            ~rank ~response:rstar ~irqs:s.s_max_irqs );
      ]
    | None -> []
  in
  exec @ interference @ blocking @ overhead

type violation = { tid : int; term : term option; message : string }

let blame_violations st tr (s : Obs.Blame.task_summary) =
  let violation term message = { tid = s.s_id; term; message } in
  (* conservation law: components sum exactly to every observed
     response (the attributor derives the backlog term independently
     from the release entry's absolute deadline, so a zero residual is
     a real cross-check, not bookkeeping) *)
  let conservation =
    if s.s_residual_violations = 0 then []
    else
      [
        violation None
          (Printf.sprintf
             "blame components of %d job(s) missed the observed response by \
              up to %dns"
             s.s_residual_violations s.s_max_abs_residual);
      ]
  in
  (* per-term domination: each empirical component must stay within
     its analytical term.  Enforcement kills and sheds invalidate the
     per-job accounting a bound speaks about, so such runs are skipped
     (the declared-budget notify-only policy never kills; this guards
     future policies). *)
  let i = s.s_rank in
  let judged =
    Sim.Trace.jobs_killed tr = 0
    && Sim.Trace.jobs_shed tr = 0
    && st.eligible.(i) && st.rta.(i) <> None && s.s_jobs > 0
  in
  let exceeded (term, v, bound) =
    let halved = st.ablation = Oracle.Blame_bounds in
    let bound = if halved then bound / 2 else bound in
    if v <= bound then None
    else
      Some
        (violation (Some term)
           (match term with
           | Exec ->
             Printf.sprintf "blamed execution %dns > absint demand bound %dns"
               v bound
           | Interference j ->
             Printf.sprintf
               "blamed interference %dns from rank %d > RTA term %dns" v j bound
           | Blocking ->
             Printf.sprintf "blamed blocking %dns > lint blocking term %dns" v
               bound
           | Overhead ->
             Printf.sprintf "blamed kernel overhead %dns > Table-1 budget %dns"
               v bound))
  in
  conservation
  @ if judged then List.filter_map exceeded (blame_terms st ~rank:i s) else []

let sim_horizon tasks =
  let maxp =
    Array.fold_left (fun a (t : Model.Task.t) -> max a t.period) 0 tasks
  in
  min (2 * maxp) (Model.Time.ms 1000)

(* -- e2e fabric run ------------------------------------------------ *)

(* One canonical three-shard fabric per index (seed 1000 + index),
   with utilization capped so the survivors' admission check always
   accepts the orphan: the claim under test is the failover machinery
   and its static bound, not the placer's shedding decision, which has
   its own unit tests.  Its periods are cycled from the spec's tasks,
   but no scored field moves with them: the specs of seeds 0, 1, 7 and
   42 give byte-identical scorecards at all 1,000 indices.  So the
   campaign does not run it; test_fabric sweeps it over 1,000 indices.

   The fabric parameters are chosen so a halved bound is
   deterministically exceeded: detection dominates the bound
   (miss_threshold 10 x 2 ms heartbeats) and the reliable layer is
   tight (1 retry, 200 us ack timeout), so the observed failover sits
   between half the bound and the bound at every index. *)
let e2e_cluster_config =
  {
    Fabric.Cluster.hb_period = Model.Time.ms 2;
    miss_threshold = 10;
    net =
      {
        Fabric.Net.retry_limit = 1;
        ack_timeout = Model.Time.us 200;
        backoff_base = Model.Time.us 100;
        backoff_jitter = Model.Time.us 50;
      };
  }

let e2e_horizon = Model.Time.ms 200
let e2e_plan =
  Result.get_ok
    (Fault.Plan.parse "frame-drop:one-in=31;node-crash:node=1,at=40ms")

(* Periods cycled from the scenario's tasks (clamped to [10ms, 50ms] so
   several post-failover jobs fit the horizon), utilization 12.5% each.
   Node 2 carries less load than node 0, so the util-ordered placer
   sends the orphan over the wire rather than re-admitting it locally
   on the coordinator — the image-transfer path is exercised on every
   run. *)
let e2e_assignments (spec : Workload.Generator.spec) =
  let periods =
    match
      List.map (fun (t : Workload.Generator.task_spec) -> t.g_period)
        spec.s_tasks
    with
    | [] -> [ Model.Time.ms 20 ]
    | ps -> ps
  in
  let period i =
    let p = List.nth periods (i mod List.length periods) in
    min (Model.Time.ms 50) (max (Model.Time.ms 10) p)
  in
  let task i =
    let p = period i in
    Model.Task.make ~id:(i + 1) ~period:p ~wcet:(p / 8) ()
  in
  [ (0, [ task 0; task 1 ]); (1, [ task 2 ]); (2, [ task 3 ]) ]

let run_e2e ~index ~ablation:_ (spec : Workload.Generator.spec) =
  let assignments = e2e_assignments spec in
  match
    Fabric.Preset.run ~config:e2e_cluster_config ~seed:(1000 + index)
      ~horizon:e2e_horizon ~plan:e2e_plan ~migration:None assignments
  with
  | Ok (cluster, score) -> (cluster, score, assignments)
  | Error e -> failwith ("e2e plan: " ^ e)

(* Sporadic arrivals are part of the scenario, not the engine: an
   observer triggers them from a dedicated split stream so both
   simulation runs and reruns see identical arrival times.  A task's
   arrivals up to the horizon are drawn first, then queued one at a
   time. *)
let sporadic_observer (spec : Workload.Generator.spec) ~horizon k =
  List.iter
    (fun (t : Workload.Generator.task_spec) ->
      if t.g_sporadic then begin
        let rng = Util.Rng.split (Util.Rng.create ~seed:9) (3000 + t.g_id) in
        let draw () = t.g_period + Util.Rng.int rng (max 1 (t.g_period / 4)) in
        let rec arrivals at acc =
          if at > horizon then Array.of_list (List.rev acc)
          else arrivals (at + draw ()) (at :: acc)
        in
        let at = arrivals (draw ()) [] in
        Emeralds.Kernel.trigger_job_series k ~count:(Array.length at)
          ~at:(Array.get at) ~tid:t.g_id
      end)
    spec.s_tasks

(* [Ident_budget] halves the budgets: still notify-only, but the
   enforced run now records overruns the plain run does not *)
let declared_enforcement ablation =
  let budget_of =
    if ablation = Oracle.Ident_budget then fun (t : Model.Task.t) ->
      Some (t.wcet / 2)
    else Fault.Inject.declared_budgets
  in
  {
    Emeralds.Kernel.budget_of;
    policy = Emeralds.Kernel.Notify_only;
    miss = Emeralds.Kernel.Miss_record;
    shed_one_in = None;
  }

let run_sim ?attach (spec : Workload.Generator.spec) sc ~horizon ~enforcement =
  let cfg = Fault.Inject.default_config ~scenario:sc ~horizon ~seed:9 () in
  let observer k =
    sporadic_observer spec ~horizon k;
    match attach with Some f -> f k | None -> ()
  in
  let cfg = { cfg with observer = Some observer; enforcement } in
  (Fault.Inject.run cfg).kernel

let wants oracles k = List.mem k oracles

let run ?(oracles = Oracle.all) ?(ablation = Oracle.No_ablation)
    ?(collect_metrics = false) ~index (spec : Workload.Generator.spec) =
  let findings = ref [] in
  let add oracle ?task message =
    findings :=
      { Oracle.oracle; scenario = spec.s_name; index; task; message }
      :: !findings
  in
  (* -- static phase: lint, absint, RTA ----------------------------- *)
  let t0 = now_us () in
  let sc = Workload.Generator.realize spec in
  let tasks = Model.Taskset.tasks sc.taskset in
  let st = statics ~ablation sc in
  let rep = st.absint in
  if wants oracles Validity then begin
    List.iter
      (fun (layer, diags) ->
        List.iter
          (fun (d : Lint.Diag.t) ->
            if d.severity = Lint.Diag.Error then
              add Validity ?task:d.task
                (layer ^ ": " ^ d.check ^ ": " ^ d.message))
          diags)
      [ ("lint", Lint.Report.run rep.ctx); ("absint", rep.diags) ];
    let u = Workload.Generator.spec_utilization spec in
    if u > 1.0 then
      add Validity (Printf.sprintf "generated utilization %.3f > 1" u)
  end;
  let rta = st.rta and eligible = st.eligible in
  let stat_us = since_us t0 in
  (* -- simulation phase -------------------------------------------- *)
  let horizon = sim_horizon tasks in
  let need_sim =
    wants oracles Rta_sim || wants oracles Demand || wants oracles Mem
    || wants oracles Ident || wants oracles Blame || collect_metrics
  in
  let t0 = now_us () in
  (* the blame attributor rides along on the enforced run; its
     subscription is trace-invisible, so Ident's comparison is
     unaffected *)
  let blame =
    if wants oracles Blame then
      Some (Obs.Blame.create ~tasks:(Obs.Blame.of_taskset sc.taskset) ())
    else None
  in
  let enforced =
    if need_sim then
      Some
        (run_sim spec sc ~horizon
           ~enforcement:(Some (declared_enforcement ablation))
           ?attach:
             (Option.map
                (fun b k -> Obs.Blame.attach b (Emeralds.Kernel.probe k))
                blame))
    else None
  in
  let plain =
    if wants oracles Ident then
      Some (run_sim spec sc ~horizon ~enforcement:None)
    else None
  in
  let sim_us = since_us t0 in
  (match (enforced, plain) with
  | Some e, Some p ->
    let te = Emeralds.Kernel.trace e and tp = Emeralds.Kernel.trace p in
    if not (Sim.Trace.equal te tp) then
      add Ident
        (Printf.sprintf
           "enforcement at declared budgets diverges: entries %d/%d busy \
            %d/%d switches %d/%d"
           (Sim.Trace.length te) (Sim.Trace.length tp)
           (Sim.Trace.busy_time te) (Sim.Trace.busy_time tp)
           (Sim.Trace.context_switches te)
           (Sim.Trace.context_switches tp))
  | _ -> ());
  (match enforced with
  | Some k when wants oracles Rta_sim ->
    let stats = Emeralds.Kernel.stats k in
    Array.iteri
      (fun i (t : Model.Task.t) ->
        match rta.(i) with
        | Some bound when eligible.(i) -> (
          match
            List.find_opt
              (fun (s : Emeralds.Kernel.task_stats) -> s.tid = t.id)
              stats
          with
          | Some s when s.misses > 0 ->
            add Rta_sim ~task:t.id
              (Printf.sprintf
                 "RTA-feasible task missed %d deadline(s) in simulation \
                  (bound %dus <= deadline %dus)"
                 s.misses (bound / 1000) (t.deadline / 1000))
          | _ -> ())
        | _ -> ())
      tasks
  | _ -> ());
  (match enforced with
  | Some k when wants oracles Demand ->
    let bound hi = if ablation = Oracle.Absint_demand then hi / 2 else hi in
    List.iter
      (fun ((t : Model.Task.t), used, hi) ->
        add Demand ~task:t.id
          (Printf.sprintf "observed execution %dns > absint bound %dns" used
             hi))
      (Fault.Report.demand_excess ~bound rep k)
  | _ -> ());
  (match enforced with
  | Some k when wants oracles Mem ->
    let mstats = Emeralds.Kernel.mem_stats k in
    (* domination: every (task, pool) high-water mark the kernel saw
       must sit inside the absint peak-live interval *)
    List.iter
      (fun (ms : Emeralds.Kernel.mem_stats) ->
        let hi =
          match
            Array.find_opt
              (fun (tb : Absint.Report.task_bound) -> tb.task.id = ms.m_tid)
              rep.tasks
          with
          | Some tb -> (
            match List.assoc_opt ms.m_pool tb.summary.peak_live with
            | Some itv -> Option.value ~default:0 (Absint.Itv.hi_int itv)
            | None -> 0)
          | None -> 0
        in
        let hi = if ablation = Oracle.Mem_peak then hi / 2 else hi in
        if ms.m_high_water > hi then
          add Mem ~task:ms.m_tid
            (Printf.sprintf
               "observed high-water %d block(s) of pool %d > absint peak-live \
                bound %d"
               ms.m_high_water ms.m_pool hi))
      mstats;
    (* leak agreement: a leak the kernel recorded must have been
       predicted by the exact lint walk for that (task, pool), and a
       must-leak (every path) must materialize once the task completed
       a job with every grant honoured (an OOM anywhere voids the
       prediction: the leaked block may simply never have been
       granted); a may-leak (some path) is not obliged to *)
    let leaks = lazy (Lint.Alloc_discipline.leaks rep.ctx) in
    let predicted ~must tid pool =
      List.exists
        (fun (l : Lint.Alloc_discipline.leak) ->
          l.task = tid && l.pool.pool_id = pool && (l.must || not must))
        (Lazy.force leaks)
    in
    let any_oom = List.exists (fun ms -> ms.Emeralds.Kernel.m_oom > 0) mstats in
    let stats = Emeralds.Kernel.stats k in
    let completions tid =
      match
        List.find_opt
          (fun (s : Emeralds.Kernel.task_stats) -> s.tid = tid)
          stats
      with
      | Some s -> s.jobs_completed
      | None -> 0
    in
    List.iter
      (fun (ms : Emeralds.Kernel.mem_stats) ->
        if ms.m_leaked > 0 && not (predicted ~must:false ms.m_tid ms.m_pool)
        then
          add Mem ~task:ms.m_tid
            (Printf.sprintf
               "kernel reclaimed %d leaked block(s) of pool %d yet \
                alloc-discipline lint predicted no leak"
               ms.m_leaked ms.m_pool);
        if
          predicted ~must:true ms.m_tid ms.m_pool
          && ms.m_leaked = 0 && (not any_oom)
          && completions ms.m_tid > 0
        then
          add Mem ~task:ms.m_tid
            (Printf.sprintf
               "alloc-discipline lint predicted a per-job leak of pool %d \
                yet %d completed job(s) leaked nothing"
               ms.m_pool (completions ms.m_tid)))
      mstats
  | _ -> ());
  (match (enforced, blame) with
  | Some k, Some b ->
    List.iter
      (fun v -> add Blame ~task:v.tid v.message)
      (List.concat_map
         (blame_violations st (Emeralds.Kernel.trace k))
         (Obs.Blame.summaries b))
  | _ -> ());
  let metrics =
    match enforced with
    | Some k when collect_metrics ->
      let m = Obs.Metrics.create () in
      Sim.Trace.iter (Obs.Metrics.observe m) (Emeralds.Kernel.trace k);
      Some m
    | _ -> None
  in
  (* -- model-checking phase ---------------------------------------- *)
  let need_mc = wants oracles Mc_props || wants oracles Rta_mc in
  let t0 = now_us () in
  let mc_expansions = ref 0 and mc_truncated = ref false in
  if need_mc then begin
    let sporadic =
      List.filter_map
        (fun (t : Workload.Generator.task_spec) ->
          if t.g_sporadic then Some (t.g_id, t.g_period, t.g_period * 5 / 4)
          else None)
        spec.s_tasks
    in
    let m = Mc.Machine.of_scenario ~sporadic sc in
    let bounds =
      {
        Mc.Explorer.horizon = min m.hyperperiod horizon;
        max_states = 4000;
        max_depth = 2000;
      }
    in
    let props =
      List.filter_map Mc.Props.by_name
        [ "deadlock"; "pi"; "invariants"; "tear"; "mem" ]
    in
    (* POR merges tie orders, so rta-mc's worst responses need it off *)
    let lesion =
      if ablation = Oracle.Mc_inherit then Some Mc.Step.Keep_inherited
      else None
    in
    let res =
      Mc.Explorer.check ~por:(not (wants oracles Rta_mc)) ?lesion ~props
        ~bounds m
    in
    mc_expansions := res.expansions;
    mc_truncated := res.truncated;
    (match res.verdict with
    | `Violation cex ->
      if wants oracles Mc_props then
        add Mc_props
          (Printf.sprintf "property %s violated after %d expansions" cex.prop
             res.expansions)
    | `Ok -> ());
    if wants oracles Rta_mc then
      Array.iteri
        (fun i (mt : Mc.Machine.mtask) ->
          match rta.(i) with
          | Some bound when eligible.(i) && res.completed.(i) > 0 ->
            let obs = res.max_response.(i) in
            if obs > bound then
              add Rta_mc ~task:mt.tid
                (Printf.sprintf
                   "model-checked response %dns > RTA bound %dns" obs bound)
          | _ -> ())
        m.tasks
  end;
  let mc_us = since_us t0 in
  {
    findings = List.rev !findings;
    stat_us;
    sim_us;
    mc_us;
    mc_expansions = !mc_expansions;
    mc_truncated = !mc_truncated;
    metrics;
  }
