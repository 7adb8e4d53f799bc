(* Plan compilation: hooks for what the kernel must mis-execute
   (demand, jitter, lost signals, drift), environment scheduling for
   what the world does to the kernel (arrivals, storms, bursts).

   Activation marks are collected out of band (a ref the hook closures
   share) because the hooks run deep inside kernel events where no
   return channel exists; environment-level faults are marked when the
   schedule is laid out, at the instant they will strike. *)

open Emeralds

type config = {
  scenario : Workload.Scenario.t;
  spec : Sched.spec;
  cost : Sim.Cost.t;
  horizon : Model.Time.t;
  seed : int;
  tick : Model.Time.t option;
  enforcement : Kernel.enforcement option;
  mem_enforcement : Kernel.mem_enforcement option;
  plan : Plan.t;
  observer : (Kernel.t -> unit) option;
}

let default_config ~scenario ?(spec = Sched.Rm) ?(cost = Sim.Cost.m68040)
    ?(horizon = Model.Time.ms 200) ?(seed = 7) ?enforcement ?mem_enforcement
    ?(plan = Plan.empty) () =
  {
    scenario;
    spec;
    cost;
    horizon;
    seed;
    tick = None;
    enforcement;
    mem_enforcement;
    plan;
    observer = None;
  }

let declared_budgets (t : Model.Task.t) = Some t.wcet

(* The natural quota function: what the static analyzer derives as the
   task's worst live-block demand across all pools (its [peak_live]
   upper ends summed); a job exceeding it violates the analyzed
   model exactly like a WCET overrun. *)
let declared_quotas (sc : Workload.Scenario.t) =
  let report = Absint.Report.analyze ~cost:Sim.Cost.zero sc in
  fun (t : Model.Task.t) ->
    Array.find_opt
      (fun (tb : Absint.Report.task_bound) ->
        tb.task.Model.Task.id = t.Model.Task.id)
      report.Absint.Report.tasks
    |> Option.map (fun (tb : Absint.Report.task_bound) ->
           List.fold_left
             (fun acc (_, itv) ->
               acc + Option.value ~default:0 (Absint.Itv.hi_int itv))
             0 tb.Absint.Report.summary.Absint.Exec.peak_live)
    |> function
    | Some q when q > 0 -> Some q
    | _ -> None

type outcome = {
  kernel : Kernel.t;
  activations : (Model.Time.t * string) list;
}

let first_activation o =
  match o.activations with [] -> None | (at, _) :: _ -> Some at

(* Jitter must be deterministic per (seed, tid, job) — independent of
   how many releases other tasks made first — so each draw gets its own
   generator keyed by all three. *)
let jitter_draw ~seed ~tid ~job ~amplitude =
  let key = seed lxor (tid * 0x9e3779b9) lxor (job * 0x85ebca6b) in
  let rng = Util.Rng.create ~seed:key in
  Util.Rng.int_in rng ~lo:(-amplitude) ~hi:amplitude

let install_demand_faults k plan mark =
  let faults =
    List.filter_map
      (function
        | Plan.Wcet_scale { tid; pct; from_job } ->
          Some (tid, from_job, `Scale pct)
        | Plan.Wcet_add { tid; extra; from_job } ->
          Some (tid, from_job, `Add extra)
        | _ -> None)
      plan
  in
  if faults <> [] then
    Kernel.set_demand_fault k
      (Some
         (fun ~tid ~job w ->
           List.fold_left
             (fun w (t, from_job, f) ->
               if t <> tid || job < from_job then w
               else
                 let w' =
                   match f with
                   | `Scale pct -> w * pct / 100
                   | `Add extra -> Model.Time.add w extra
                 in
                 if w' <> w then
                   mark (Kernel.now k)
                     (Printf.sprintf "wcet fault on tau%d job %d" tid job);
                 w')
             w faults))

let install_jitter k plan ~seed mark =
  let amps =
    List.filter_map
      (function
        | Plan.Release_jitter { tid; amplitude } -> Some (tid, amplitude)
        | _ -> None)
      plan
  in
  if amps <> [] then
    Kernel.set_release_jitter k
      (Some
         (fun ~tid ~job ->
           match List.assoc_opt tid amps with
           | None -> 0
           | Some amplitude ->
             let j = jitter_draw ~seed ~tid ~job ~amplitude in
             if j <> 0 then
               mark (Kernel.now k)
                 (Printf.sprintf "release jitter %+d ns on tau%d job %d" j tid
                    job);
             j))

let install_signal_drops k plan mark =
  let drops =
    List.filter_map
      (function
        | Plan.Lost_signal { wq; one_in } -> Some (wq, one_in) | _ -> None)
      plan
  in
  if drops <> [] then begin
    let counts = Hashtbl.create 4 in
    Kernel.set_signal_drop k
      (Some
         (fun ~wq_id ->
           match List.assoc_opt wq_id drops with
           | None -> false
           | Some one_in ->
             let c =
               1 + Option.value ~default:0 (Hashtbl.find_opt counts wq_id)
             in
             Hashtbl.replace counts wq_id c;
             if c mod one_in = 0 then begin
               mark (Kernel.now k)
                 (Printf.sprintf "signal lost on waitq %d" wq_id);
               true
             end
             else false))
  end

(* One handler per declared source, doing exactly what the source
   declares: signal its wait queues, publish (zeroed) payloads to its
   state messages.  Arrival times are drawn per source from its
   inter-arrival window with an independent child generator, so adding
   a source never re-times another. *)
let schedule_sources k (cfg : config) root mark =
  let drops =
    List.filter_map
      (function Plan.Irq_drop { irq; one_in } -> Some (irq, one_in) | _ -> None)
      cfg.plan
  in
  List.iteri
    (fun si (src : Workload.Scenario.irq_source) ->
      Kernel.register_irq k ~irq:src.irq ~signals:src.signals
        ~writes:src.writes
        ~handler:(fun () ->
          List.iter (fun wq -> Kernel.signal_waitq k wq) src.signals;
          List.iter
            (fun sm -> State_msg.write sm (Array.make (State_msg.words sm) 0))
            src.writes)
        ();
      let rng = Util.Rng.split root (1000 + si) in
      let drop = List.assoc_opt src.irq drops in
      let t = ref 0 and n = ref 0 in
      let fin = ref false in
      while not !fin do
        t :=
          !t
          + Util.Rng.int_in rng ~lo:src.min_interarrival
              ~hi:src.max_interarrival;
        if !t > cfg.horizon then fin := true
        else begin
          incr n;
          match drop with
          | Some one_in when !n mod one_in = 0 ->
            mark !t (Printf.sprintf "dropped delivery of irq %d" src.irq)
          | _ -> Kernel.raise_irq_at k ~at:!t ~irq:src.irq
        end
      done)
    cfg.scenario.irq_sources

let schedule_storms_and_bursts k (cfg : config) mark =
  List.iter
    (function
      | Plan.Irq_storm { irq; at; count; spacing } ->
        (* a storm may target an IRQ no source declares: give it a
           handler that costs interrupt entry and nothing else *)
        (try Kernel.register_irq k ~irq ~handler:(fun () -> ()) ()
         with Invalid_argument _ -> ());
        mark at (Printf.sprintf "irq storm on irq %d (%d deliveries)" irq count);
        for i = 0 to count - 1 do
          let t = Model.Time.add at (Model.Time.mul spacing i) in
          if t <= cfg.horizon then Kernel.raise_irq_at k ~at:t ~irq
        done
      | Plan.Sporadic_burst { tid; at; count; spacing } ->
        mark at (Printf.sprintf "sporadic burst on tau%d (%d arrivals)" tid count);
        for i = 0 to count - 1 do
          let t = Model.Time.add at (Model.Time.mul spacing i) in
          if t <= cfg.horizon then Kernel.trigger_job_at k ~at:t ~tid
        done
      | _ -> ())
    cfg.plan

let run (cfg : config) =
  let k =
    Kernel.create ?tick:cfg.tick ~cost:cfg.cost ~spec:cfg.spec
      ~taskset:cfg.scenario.taskset ~programs:cfg.scenario.programs ()
  in
  Kernel.set_enforcement k cfg.enforcement;
  Kernel.set_mem_enforcement k cfg.mem_enforcement;
  (match cfg.observer with Some f -> f k | None -> ());
  let activations = ref [] in
  let mark at what = activations := (at, what) :: !activations in
  install_demand_faults k cfg.plan mark;
  install_jitter k cfg.plan ~seed:cfg.seed mark;
  install_signal_drops k cfg.plan mark;
  List.iter
    (function
      | Plan.Clock_drift { ppm } ->
        Kernel.set_drift_ppm k ppm;
        if cfg.tick <> None then mark 0 (Printf.sprintf "clock drift %+d ppm" ppm)
      | _ -> ())
    cfg.plan;
  let root = Util.Rng.create ~seed:cfg.seed in
  schedule_sources k cfg root mark;
  schedule_storms_and_bursts k cfg mark;
  Kernel.run k ~until:cfg.horizon;
  let activations =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !activations)
  in
  { kernel = k; activations }
