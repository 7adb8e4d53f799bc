(* Benchmark program for the tooling, in-process on one thread.

   Three workloads:
   - campaign-full: [Campaign.Driver.run] with every oracle, then
     [Campaign.Report.to_json] on the summary;
   - campaign-nomc: the same without the [mc] and [rta-mc] oracles;
   - trace-long: one long engine-preset run shaped like
     [emeralds_cli trace --format json] (RM, trace kept, metrics and
     flight recorder subscribed to every category), then
     [Obs.Export.metrics_json].

   A campaign workload is a list of chunks, each one campaign sweep
   [{seed; count}]; run.py chooses the chunk seeds from the workload
   seed.  Modes, each printing one JSON object of raw measurements on
   stdout (run.py turns them into metrics and checks them):

     bench.exe e2e WORKLOAD SECONDS SEED COUNT CHUNK_SEEDS
       untraced: repeated set-up, then rounds over every chunk until
       SECONDS have elapsed; per-chunk times and outputs, with samples
       of the host's speed between them
     bench.exe heap WORKLOAD SEED COUNT CHUNK_SEEDS
       one round, then the peak major heap (run in a fresh process)
     bench.exe traced WORKLOAD SPANS_PATH SEED COUNT CHUNK_SEEDS
       an untraced round, the layer-by-layer replay of the same work
       with a span around every call into a layer, companion runs for
       the layers the workload does not reach, and the micro rows.
       Spans are kept in memory and written to SPANS_PATH at the end.
       For trace-long, the chunks are its campaign companion.
     bench.exe pool COUNT FIRST LAST
       reference data: one COUNT-scenario campaign sweep for each seed
       in [FIRST, LAST), one JSON line per seed
     bench.exe trace-ref FIRST LAST
       reference data: the trace-long digest for each seed in
       [FIRST, LAST), one JSON line per seed

   CHUNK_SEEDS is a comma-separated list. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- sizes ------------------------------------------------------------- *)

let long_horizon = Model.Time.sec 100

(* the trace-long-shaped run a campaign traced run adds, and how many
   chunks of campaign-nomc its traced run replays through the MC layer *)
let companion_horizon = Model.Time.sec 20
let mc_companion_chunks = 8

(* -- JSON output ------------------------------------------------------- *)

let jfloat f = Printf.sprintf "%.9g" f
let jint = string_of_int
let jstr s = Printf.sprintf "%S" s

let jobj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields)
  ^ "}"

let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"
let sum = List.fold_left ( +. ) 0.

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Timings of [f] for at least 11 repetitions and [budget] seconds, at
   most 201 repetitions. *)
let timed_reps ~budget f =
  let t_end = now () +. budget in
  let rec go acc n =
    if n >= 201 || (n >= 11 && now () > t_end) then List.rev acc
    else go (snd (timed f) :: acc) (n + 1)
  in
  go [] 0

(* Rounds of [f] until [seconds] have elapsed, at least [min_rounds]. *)
let rounds ~seconds ~min_rounds f =
  let t_end = now () +. seconds in
  let rec go acc n =
    if n >= min_rounds && now () >= t_end then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* -- campaign workloads ------------------------------------------------ *)

let nomc_oracles =
  List.filter
    (fun k -> k <> Campaign.Oracle.Mc_props && k <> Campaign.Oracle.Rta_mc)
    Campaign.Oracle.all

let campaign_config ~mc ~count seed =
  {
    Campaign.Driver.default_config with
    seed;
    count;
    oracles = (if mc then Campaign.Oracle.all else nomc_oracles);
  }

type chunk_run = {
  c_secs : float;
  c_findings : int;
  c_expansions : int;
  c_truncated : int;
  c_summary : Campaign.Driver.summary;
}

(* One chunk as a user runs it: the sweep, then its JSON report. *)
let run_chunk cfg =
  let (s, json), c_secs =
    timed (fun () ->
        let s = Campaign.Driver.run cfg in
        (s, Campaign.Report.to_json s))
  in
  if String.length json = 0 then failwith "empty campaign report";
  {
    c_secs;
    c_findings = Campaign.Driver.falsifications s;
    c_expansions = s.mc_expansions;
    c_truncated = s.mc_truncated;
    c_summary = s;
  }

(* The kernel runs [Campaign.Eval.run] makes, rebuilt from public
   functions: sporadic arrivals from their own split stream, the
   declared-budget notify-only enforcement on the first run. *)
let sporadic_observer (spec : Workload.Generator.spec) ~horizon k =
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
    spec.s_tasks

let declared_enforcement =
  {
    Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
    policy = Emeralds.Kernel.Notify_only;
    miss = Emeralds.Kernel.Miss_record;
    shed_one_in = None;
  }

let sim_horizon (sc : Workload.Scenario.t) =
  let maxp =
    Array.fold_left
      (fun a (t : Model.Task.t) -> max a t.period)
      0
      (Model.Taskset.tasks sc.taskset)
  in
  min (2 * maxp) (Model.Time.ms 1000)

let inject spec sc ~horizon ~enforcement =
  let cfg = Fault.Inject.default_config ~scenario:sc ~horizon ~seed:9 () in
  let cfg =
    { cfg with observer = Some (sporadic_observer spec ~horizon); enforcement }
  in
  (Fault.Inject.run cfg).kernel

let n_entries k = List.length (Sim.Trace.entries (Emeralds.Kernel.trace k))

(* Kernel trace events of the two simulations [Eval.run] makes per
   scenario; deterministic per spec, counted outside any timing. *)
let campaign_events specs =
  List.fold_left
    (fun acc spec ->
      let run enforcement =
        let sc = Workload.Generator.realize spec in
        n_entries (inject spec sc ~horizon:(sim_horizon sc) ~enforcement)
      in
      acc + run (Some declared_enforcement) + run None)
    0 specs

(* -- trace-long -------------------------------------------------------- *)

let flightrec_triggers =
  [
    Obs.Flightrec.On_miss; On_overrun; On_kill; On_oom; On_quota;
    On_net_timeout;
  ]

type trace_run = {
  t_secs : float;
  t_digest : (string * int) list;
  t_json_md5 : string;
}

(* What a trace-long run must reproduce: the kernel's own aggregates,
   the subscribers' view of the same stream, and the exported digest's
   hash. *)
let digest k metrics fr json =
  let tr = Emeralds.Kernel.trace k in
  let seen =
    List.fold_left (fun a (_, n) -> a + n) 0 (Obs.Metrics.counters metrics)
  in
  ( [
      ("events", n_entries k);
      ("subscriber_events", seen);
      ("recorded", Obs.Flightrec.total_recorded fr);
      ("switches", Sim.Trace.context_switches tr);
      ("switch_counter", Obs.Metrics.counter metrics "switch");
      ("preemptions", Sim.Trace.preemptions tr);
      ("misses", Sim.Trace.deadline_misses tr);
      ("overruns", Sim.Trace.budget_overruns tr);
      ("busy_ns", Sim.Trace.busy_time tr);
      ("overhead_ns", Sim.Trace.overhead_total tr);
    ],
    Digest.to_hex (Digest.string json) )

let subscribed_config ~seed ~horizon =
  let scenario = Option.get (Workload.Scenario.make "engine") in
  let metrics = Obs.Metrics.create () in
  let fr =
    Obs.Flightrec.create ~bytes:(fst Emeralds.Footprint.envelope)
      ~triggers:flightrec_triggers ()
  in
  let observer k =
    let probe = Emeralds.Kernel.probe k in
    Obs.Probe.subscribe probe ~mask:Obs.Probe.all_mask
      (Obs.Metrics.observe metrics);
    Obs.Probe.subscribe probe ~mask:Obs.Probe.all_mask
      (Obs.Flightrec.record fr)
  in
  let cfg =
    {
      (Fault.Inject.default_config ~scenario ~spec:Emeralds.Sched.Rm ~horizon
         ~seed ())
      with
      observer = Some observer;
    }
  in
  (cfg, metrics, fr)

let trace_run ~seed ~horizon =
  let (o, metrics, fr, json), t_secs =
    timed (fun () ->
        let cfg, metrics, fr = subscribed_config ~seed ~horizon in
        let o = Fault.Inject.run cfg in
        (o, metrics, fr, Obs.Export.metrics_json metrics))
  in
  let t_digest, t_json_md5 = digest o.kernel metrics fr json in
  { t_secs; t_digest; t_json_md5 }

(* Set-up of a trace-long run: the scenario, the kernel, the two
   subscribers — what [Fault.Inject.run] does before its first event. *)
let trace_setup ~seed =
  let cfg, _, _ = subscribed_config ~seed ~horizon:long_horizon in
  let k =
    Emeralds.Kernel.create ~keep_trace:true ~cost:cfg.cost ~spec:cfg.spec
      ~taskset:cfg.scenario.taskset ~programs:cfg.scenario.programs ()
  in
  Option.iter (fun f -> f k) cfg.observer

let digest_json (d, md5) =
  jobj
    [
      ("digest", jobj (List.map (fun (k, v) -> (k, jint v)) d));
      ("json_md5", jstr md5);
    ]

(* -- e2e mode ---------------------------------------------------------- *)

type workload = Full | Nomc | Long

let workload_of_string = function
  | "campaign-full" -> Full
  | "campaign-nomc" -> Nomc
  | "trace-long" -> Long
  | w -> failwith ("unknown workload " ^ w)

let top_heap_bytes () = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)

(* Host speed.  The machines this runs on are shared, and their speed
   drifts by tens of percent over seconds; [host_loop] is a fixed piece
   of work over the standard library only, so no change to the
   repository moves it.  The e2e run samples it at least every quarter
   second between timed items, and run.py scales each timing by the
   samples around it (see NOTES.md). *)
module Int_map = Map.Make (Int)

let host_loop () =
  for _ = 1 to 2 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 20_000 do
      Hashtbl.replace h ((i * 7919) land 4095) (string_of_int i)
    done;
    let l = List.sort compare (List.init 20_000 (fun i -> i * 7919 mod 10007)) in
    let m = List.fold_left (fun m x -> Int_map.add x x m) Int_map.empty l in
    ignore (Sys.opaque_identity (h, m))
  done

let origin = now ()
let host_samples = ref []
let last_sample = ref neg_infinity

let host_sample () =
  let (), d = timed host_loop in
  last_sample := now ();
  host_samples := (!last_sample -. d -. origin, d) :: !host_samples

let host_sample_due () = if now () -. !last_sample >= 0.25 then host_sample ()

(* [f ()], with the instant it started, after a host sample if one is
   due. *)
let stamped f =
  host_sample_due ();
  let at = now () -. origin in
  (at, f ())

let pair_json (a, b) = jlist jfloat [ a; b ]

let e2e w ~seconds ~seed ~configs =
  (* the first run of the host loop also pays for warming up *)
  host_loop ();
  (* one set-up takes a few ms for a campaign, ~10 us for trace-long:
     time trace-long's in batches of 50 *)
  let batch, setup =
    match w with
    | Full | Nomc ->
      ( 1,
        fun () ->
          List.iter (fun c -> ignore (Campaign.Driver.spec_streams c)) configs
      )
    | Long ->
      ( 50,
        fun () ->
          for _ = 1 to 50 do
            trace_setup ~seed
          done )
  in
  let setup =
    rounds ~seconds:1. ~min_rounds:11 (fun () ->
        let at, ((), d) = stamped (fun () -> timed setup) in
        (at, d /. float batch))
  in
  host_sample ();
  let fields =
    match w with
    | Full | Nomc ->
      let rs =
        rounds ~seconds ~min_rounds:3 (fun () ->
            List.map (fun c -> stamped (fun () -> run_chunk c)) configs)
      in
      let chunk_json i (cfg : Campaign.Driver.config) =
        let runs = List.map (fun r -> List.nth r i) rs in
        jobj
          [
            ("seed", jint cfg.seed);
            ("runs", jlist (fun (at, r) -> pair_json (at, r.c_secs)) runs);
            ("findings", jlist (fun (_, r) -> jint r.c_findings) runs);
            ("mc_expansions", jlist (fun (_, r) -> jint r.c_expansions) runs);
            ("mc_truncated", jlist (fun (_, r) -> jint r.c_truncated) runs);
          ]
      in
      host_sample ();
      let events =
        List.fold_left
          (fun a c -> a + campaign_events (Campaign.Driver.spec_streams c))
          0 configs
      in
      [
        ("chunks", jlist Fun.id (List.mapi chunk_json configs));
        ("events", jint events);
      ]
    | Long ->
      let runs =
        rounds ~seconds ~min_rounds:3 (fun () ->
            stamped (fun () -> trace_run ~seed ~horizon:long_horizon))
      in
      host_sample ();
      [
        ("runs", jlist (fun (at, r) -> pair_json (at, r.t_secs)) runs);
        ( "digests",
          jlist (fun (_, r) -> digest_json (r.t_digest, r.t_json_md5)) runs );
      ]
  in
  jobj
    ([
       ("host", jlist pair_json (List.rev !host_samples));
       ("setup", jlist pair_json setup);
     ]
    @ fields)

(* One round in a fresh process, then its peak major heap. *)
let heap w ~seed ~configs =
  (match w with
  | Full | Nomc -> List.iter (fun c -> ignore (run_chunk c)) configs
  | Long -> ignore (trace_run ~seed ~horizon:long_horizon));
  jobj [ ("top_heap_bytes", jint (top_heap_bytes ())) ]

(* -- traced mode: spans ------------------------------------------------ *)

(* Every span is kept in memory — layer, start, end, its own scenario
   id if it is a scenario span, and the scenario span that caused it —
   and written when the run ends. *)
type span = { layer : string; t0 : float; t1 : float; id : int; parent : int }

let spans : span list ref = ref []
let parent = ref (-1)

let span layer f =
  let t0 = now () in
  let r = f () in
  spans := { layer; t0; t1 = now (); id = -1; parent = !parent } :: !spans;
  r

let record ?(id = -1) layer d =
  let t1 = now () in
  spans := { layer; t0 = t1 -. d; t1; id; parent = -1 } :: !spans

let samples layer =
  List.filter_map
    (fun s -> if s.layer = layer then Some (s.t1 -. s.t0) else None)
    !spans

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "layer\tstart_s\tend_s\tid\tparent\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\t%.9f\t%.9f\t%d\t%d\n" s.layer s.t0 s.t1 s.id
            s.parent)
        (List.rev !spans))

(* Of all scenario-span time, the share no layer span inside it covers
   (layer spans never nest, so their durations add). *)
let unattributed_frac () =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    !spans;
  let total, uncovered =
    List.fold_left
      (fun (t, u) s ->
        if s.id >= 0 then
          let d = s.t1 -. s.t0 in
          (t +. d, u +. d -. Option.value ~default:0. (Hashtbl.find_opt covered s.id))
        else (t, u))
      (0., 0.) !spans
  in
  uncovered /. total

type mc_totals = {
  mutable scenarios : int;
  mutable expansions : int;
  mutable truncated : int;
  mutable distinct : int;
  mutable revisits : int;
  mutable por_skipped : int;
  mutable violations : int;
}

let mc_totals () =
  {
    scenarios = 0;
    expansions = 0;
    truncated = 0;
    distinct = 0;
    revisits = 0;
    por_skipped = 0;
    violations = 0;
  }

let mc_props =
  List.filter_map Mc.Props.by_name
    [ "deadlock"; "pi"; "invariants"; "tear"; "mem" ]

(* The model-checking phase of [Eval.run] on a freshly realized
   scenario: compile, explore. *)
let replay_mc tot spec sc ~horizon =
  let sporadic =
    List.filter_map
      (fun (t : Workload.Generator.task_spec) ->
        if t.g_sporadic then Some (t.g_id, t.g_period, t.g_period * 5 / 4)
        else None)
      spec.Workload.Generator.s_tasks
  in
  let m = span "mc.build_us" (fun () -> Mc.Machine.of_scenario ~sporadic sc) in
  let bounds =
    {
      Mc.Explorer.horizon = min m.hyperperiod horizon;
      max_states = 4000;
      max_depth = 2000;
    }
  in
  let res =
    span "mc.check_us" (fun () -> Mc.Explorer.check ~props:mc_props ~bounds m)
  in
  tot.scenarios <- tot.scenarios + 1;
  tot.expansions <- tot.expansions + res.expansions;
  if res.truncated then tot.truncated <- tot.truncated + 1;
  tot.distinct <- tot.distinct + res.distinct;
  tot.revisits <- tot.revisits + res.revisits;
  tot.por_skipped <- tot.por_skipped + res.por_skipped;
  match res.verdict with
  | `Ok -> ()
  | `Violation _ -> tot.violations <- tot.violations + 1

let realize spec =
  span "workload.realize_us" (fun () -> Workload.Generator.realize spec)

let next_scenario = ref 0

(* One scenario of [Eval.run], layer by layer.  The oracle comparisons
   between the calls stay outside every layer span (they are the
   campaign's own work); blame is folded offline over the enforced
   run's trace rather than subscribed live, and the blame fabric leg is
   not replayed.  Returns whether the two simulations agreed bit for
   bit (the Ident claim) and their trace events. *)
let replay_scenario ~mc tot ~index spec =
  let id = !next_scenario in
  incr next_scenario;
  let t0 = now () in
  parent := id;
  let sc = realize spec in
  let ctx =
    Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
      ~taskset:sc.taskset ~programs:sc.programs ()
  in
  ignore (span "lint.report_us" (fun () -> Lint.Report.run ctx));
  ignore (span "absint.analyze_us" (fun () -> Absint.Report.analyze sc));
  let blocking =
    span "lint.blocking_us" (fun () -> Lint.Blocking_terms.blocking_terms ctx)
  in
  ignore
    (span "analysis.rta_us" (fun () ->
         let rows =
           Analysis.Overhead.inflate ~cost:Sim.Cost.m68040
             ~spec:Emeralds.Sched.Rm sc.taskset
         in
         Array.init (Array.length rows) (fun i ->
             Analysis.Rta.response_time ~blocking ~tasks:rows i)));
  let horizon = sim_horizon sc in
  (* like [Eval.run], a fresh realization for every stateful consumer *)
  let sc1 = realize spec in
  let enforced =
    span "fault.inject_run_us" (fun () ->
        inject spec sc1 ~horizon ~enforcement:(Some declared_enforcement))
  in
  let entries = Sim.Trace.entries (Emeralds.Kernel.trace enforced) in
  span "obs.blame_us" (fun () ->
      let b = Obs.Blame.create ~tasks:(Obs.Blame.of_taskset sc.taskset) () in
      List.iter (Obs.Blame.observe b) entries);
  let sc2 = realize spec in
  let plain =
    span "fault.inject_run_us" (fun () ->
        inject spec sc2 ~horizon ~enforcement:None)
  in
  let ident = Campaign.Eval.norm_sig enforced = Campaign.Eval.norm_sig plain in
  let events = List.length entries + n_entries plain in
  ignore
    (span "fabric.run_us" (fun () ->
         Campaign.Eval.run_e2e ~index ~ablation:Campaign.Oracle.No_ablation
           spec));
  if mc then replay_mc tot spec (realize spec) ~horizon;
  parent := -1;
  record ~id "campaign.scenario_us" (now () -. t0);
  (ident, events)

(* Per-scenario generation, the way [Generator.scenario_specs] does it;
   the specs must come out equal to the driver's. *)
let replay_gen (cfg : Campaign.Driver.config) =
  let root = Util.Rng.create ~seed:cfg.seed in
  let specs =
    List.init cfg.count (fun i ->
        span "workload.gen_us" (fun () ->
            Workload.Generator.spec_of ~rng:(Util.Rng.split root i) ~index:i ()))
  in
  if specs <> Campaign.Driver.spec_streams cfg then
    failwith "replayed generation differs from Driver.spec_streams";
  specs

let mc_json (t : mc_totals) =
  jobj
    [
      ("scenarios", jint t.scenarios);
      ("expansions", jint t.expansions);
      ("truncated", jint t.truncated);
      ("distinct", jint t.distinct);
      ("revisits", jint t.revisits);
      ("por_skipped", jint t.por_skipped);
      ("violations", jint t.violations);
    ]

(* The untraced round, then the replay of the same chunks, then the
   report timing on the untraced summaries. *)
let traced_campaign ~mc configs =
  let untraced = List.map run_chunk configs in
  let tot = mc_totals () in
  let disagreements = ref 0 and events = ref 0 in
  let sims_before = List.length (samples "fault.inject_run_us") in
  let (), traced_s =
    timed (fun () ->
        List.iter
          (fun cfg ->
            List.iteri
              (fun index spec ->
                let ident, ev = replay_scenario ~mc tot ~index spec in
                if not ident then incr disagreements;
                events := !events + ev)
              (replay_gen cfg))
          configs)
  in
  let sims = samples "fault.inject_run_us" in
  let sim_s =
    sum (List.filteri (fun i _ -> i < List.length sims - sims_before) sims)
  in
  List.iter
    (fun r ->
      List.iter (record "campaign.report_us")
        (timed_reps ~budget:0.02 (fun () ->
             ignore (Campaign.Report.to_json r.c_summary))))
    untraced;
  let total f = List.fold_left (fun a r -> a + f r) 0 untraced in
  jobj
    [
      ("untraced_s", jfloat (sum (List.map (fun r -> r.c_secs) untraced)));
      ("traced_s", jfloat traced_s);
      ("untraced_findings", jint (total (fun r -> r.c_findings)));
      ("untraced_mc_expansions", jint (total (fun r -> r.c_expansions)));
      ("untraced_mc_truncated", jint (total (fun r -> r.c_truncated)));
      ("replay_mc", mc_json tot);
      ("replay_disagreements", jint !disagreements);
      ("events", jint !events);
      ("sim_s", jfloat sim_s);
    ]

(* Trace-long, layer by layer: the scenario and kernel set-up, the
   subscribed run, the export; then bare runs of the same kernel
   alternated with subscribed ones for the attach ratio. *)
let traced_long ~seed ~horizon =
  let untraced = trace_run ~seed ~horizon in
  let (cfg, d, events), traced_s =
    timed (fun () ->
        let cfg, metrics, fr =
          span "workload.scenario_us" (fun () ->
              subscribed_config ~seed ~horizon)
        in
        let o = span "sim.subscribed_run_us" (fun () -> Fault.Inject.run cfg) in
        let json =
          span "obs.export_us" (fun () -> Obs.Export.metrics_json metrics)
        in
        (cfg, digest o.kernel metrics fr json, n_entries o.kernel))
  in
  let ratios =
    List.init 2 (fun _ ->
        let (), bare =
          timed (fun () ->
              ignore (Fault.Inject.run { cfg with observer = None }))
        in
        record "sim.bare_run_us" bare;
        let sub_cfg, _, _ = subscribed_config ~seed ~horizon in
        let (), sub = timed (fun () -> ignore (Fault.Inject.run sub_cfg)) in
        record "sim.subscribed_run_us" sub;
        sub /. bare)
  in
  jobj
    [
      ("untraced_s", jfloat untraced.t_secs);
      ("traced_s", jfloat traced_s);
      ("untraced", digest_json (untraced.t_digest, untraced.t_json_md5));
      ("traced", digest_json d);
      ("events", jint events);
      ("sim_s", jfloat (median (samples "sim.subscribed_run_us")));
      ("attach_ratio", jfloat (median ratios));
    ]

(* -- micro rows -------------------------------------------------------- *)

(* ns/op and minor words/op of [f]: medians over 25 batches of ~4 ms. *)
let micro name f =
  for _ = 1 to 2000 do
    f ()
  done;
  let iters =
    let t_end = now () +. 0.004 in
    let n = ref 0 in
    while now () < t_end do
      f ();
      incr n
    done;
    max 1 !n
  in
  let batch () =
    let w0 = Gc.minor_words () in
    let (), t =
      timed (fun () ->
          for _ = 1 to iters do
            f ()
          done)
    in
    (t *. 1e9 /. float iters, (Gc.minor_words () -. w0) /. float iters)
  in
  let bs = List.init 25 (fun _ -> batch ()) in
  (name, median (List.map fst bs), median (List.map snd bs))

let n_tasks = 32

let micro_rows () =
  let engine_step =
    let e = Sim.Engine.create () in
    (* a standing backlog, so the queue is not trivially empty *)
    for i = 1 to n_tasks do
      ignore (Sim.Engine.schedule e ~at:(Model.Time.sec 1000 + i) ignore)
    done;
    fun () ->
      ignore (Sim.Engine.schedule_after e ~delay:1 ignore);
      ignore (Sim.Engine.step e)
  in
  let rm_block_unblock =
    let open Emeralds in
    let q = Readyq.Rm_queue.create () in
    let tcbs = Array.init n_tasks (fun i -> Mock.tcb ~tid:i ()) in
    Array.iter (fun t -> Readyq.Rm_queue.add q t) tcbs;
    let victim = tcbs.(0) in
    fun () ->
      victim.state <- Types.Blocked "bench";
      ignore (Readyq.Rm_queue.note_blocked q victim);
      victim.state <- Types.Ready;
      Readyq.Rm_queue.note_unblocked q victim
  in
  let edf_select =
    let open Emeralds in
    let q = Readyq.Edf_queue.create () in
    for i = 0 to n_tasks - 1 do
      Readyq.Edf_queue.add q (Mock.tcb ~tid:i ())
    done;
    fun () -> ignore (Readyq.Edf_queue.select q)
  in
  let entry = Sim.Trace.Context_switch { from_tid = Some 1; to_tid = Some 2 } in
  let probe_emit subs =
    let p =
      Obs.Probe.create ~trace:(Sim.Trace.create ~keep_entries:false ()) ()
    in
    for _ = 1 to subs do
      Obs.Probe.subscribe p ~mask:Obs.Probe.all_mask ignore
    done;
    fun () -> Obs.Probe.emit p ~at:0 entry
  in
  let trace_emit =
    let tr = Sim.Trace.create ~keep_entries:false () in
    fun () -> Sim.Trace.emit tr ~at:0 entry
  in
  let state_key =
    let m =
      Mc.Machine.of_scenario (Option.get (Workload.Scenario.make "engine"))
    in
    let s = Mc.State.init m in
    fun () -> ignore (Mc.State.key m s)
  in
  [
    micro "sim.engine_schedule_step" engine_step;
    micro "core.readyq_rm_block_unblock" rm_block_unblock;
    micro "core.readyq_edf_select" edf_select;
    micro "obs.probe_emit_sub0" (probe_emit 0);
    micro "obs.probe_emit_sub1" (probe_emit 1);
    micro "obs.probe_emit_sub3" (probe_emit 3);
    micro "sim.trace_emit" trace_emit;
    micro "mc.state_key" state_key;
  ]

(* -- traced mode ------------------------------------------------------- *)

let series_json layer =
  let xs = List.map (fun d -> d *. 1e6) (samples layer) in
  jobj
    [
      ("count", jint (List.length xs));
      ("p50", jfloat (median xs));
      ("p95", jfloat (percentile 0.95 xs));
      ("sum", jfloat (sum xs));
    ]

let layers =
  [
    "campaign.scenario_us"; "campaign.report_us"; "workload.gen_us";
    "workload.realize_us"; "lint.report_us"; "lint.blocking_us";
    "absint.analyze_us"; "analysis.rta_us"; "fault.inject_run_us";
    "obs.blame_us"; "fabric.run_us"; "mc.build_us"; "mc.check_us";
    "obs.export_us";
  ]

let traced w ~spans_path ~seed ~configs =
  let parts =
    match w with
    | Full ->
      [
        ("campaign", traced_campaign ~mc:true configs);
        ("long", traced_long ~seed ~horizon:companion_horizon);
      ]
    | Nomc ->
      let campaign = traced_campaign ~mc:false configs in
      (* the MC layer, on the first chunks' scenarios *)
      let tot = mc_totals () in
      List.iteri
        (fun i cfg ->
          if i < mc_companion_chunks then
            List.iter
              (fun spec ->
                let sc = Workload.Generator.realize spec in
                replay_mc tot spec sc ~horizon:(sim_horizon sc))
              (Campaign.Driver.spec_streams cfg))
        configs;
      [
        ("campaign", campaign);
        ("mc", mc_json tot);
        ("long", traced_long ~seed ~horizon:companion_horizon);
      ]
    | Long ->
      [
        ("long", traced_long ~seed ~horizon:long_horizon);
        ("campaign", traced_campaign ~mc:true configs);
      ]
  in
  let micros = micro_rows () in
  let unattributed = unattributed_frac () in
  write_spans spans_path;
  jobj
    (parts
    @ [
        ("unattributed_frac", jfloat unattributed);
        ("layers", jobj (List.map (fun l -> (l, series_json l)) layers));
        ( "micro",
          jobj
            (List.map
               (fun (n, ns, words) ->
                 (n, jobj [ ("ns_op", jfloat ns); ("words_op", jfloat words) ]))
               micros) );
      ])

(* -- reference modes ---------------------------------------------------- *)

(* Each chunk's outputs (findings of its every-oracle run), and three
   timed runs with and without MC, a host sample before each: run.py
   turns them into the cost hints its chunk choice is balanced on. *)
let pool ~count ~first ~last =
  for seed = first to last - 1 do
    host_samples := [];
    let runs mc =
      List.init 3 (fun _ ->
          host_sample ();
          stamped (fun () -> run_chunk (campaign_config ~mc ~count seed)))
    in
    let full = runs true in
    let nomc = runs false in
    host_sample ();
    let r = snd (List.hd full) in
    let cfg = campaign_config ~mc:true ~count seed in
    let times rs = jlist (fun (at, r) -> pair_json (at, r.c_secs)) rs in
    print_endline
      (jobj
         [
           ("seed", jint seed);
           ("findings", jint r.c_findings);
           ("mc_expansions", jint r.c_expansions);
           ("mc_truncated", jint r.c_truncated);
           ("events", jint (campaign_events (Campaign.Driver.spec_streams cfg)));
           ("full", times full);
           ("nomc", times nomc);
           ("host", jlist pair_json (List.rev !host_samples));
         ])
  done

let trace_ref ~first ~last =
  for seed = first to last - 1 do
    let r = trace_run ~seed ~horizon:long_horizon in
    print_endline
      (jobj
         [ ("seed", jint seed); ("run", digest_json (r.t_digest, r.t_json_md5)) ])
  done

let () =
  let configs w count chunk_seeds =
    let count = int_of_string count in
    String.split_on_char ',' chunk_seeds
    |> List.filter (( <> ) "")
    |> List.map (fun s ->
           campaign_config ~mc:(w <> Nomc) ~count (int_of_string s))
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "e2e"; w; seconds; seed; count; chunk_seeds ] ->
    let w = workload_of_string w in
    print_endline
      (e2e w ~seconds:(float_of_string seconds) ~seed:(int_of_string seed)
         ~configs:(configs w count chunk_seeds))
  | [ "heap"; w; seed; count; chunk_seeds ] ->
    let w = workload_of_string w in
    print_endline
      (heap w ~seed:(int_of_string seed) ~configs:(configs w count chunk_seeds))
  | [ "traced"; w; spans_path; seed; count; chunk_seeds ] ->
    let w = workload_of_string w in
    print_endline
      (traced w ~spans_path ~seed:(int_of_string seed)
         ~configs:(configs w count chunk_seeds))
  | [ "pool"; count; first; last ] ->
    pool ~count:(int_of_string count) ~first:(int_of_string first)
      ~last:(int_of_string last)
  | [ "trace-ref"; first; last ] ->
    trace_ref ~first:(int_of_string first) ~last:(int_of_string last)
  | _ ->
    prerr_endline
      "usage: bench.exe e2e WORKLOAD SECONDS SEED COUNT CHUNK_SEEDS\n\
      \       bench.exe heap WORKLOAD SEED COUNT CHUNK_SEEDS\n\
      \       bench.exe traced WORKLOAD SPANS_PATH SEED COUNT CHUNK_SEEDS\n\
      \       bench.exe pool COUNT FIRST LAST\n\
      \       bench.exe trace-ref FIRST LAST";
    exit 2
