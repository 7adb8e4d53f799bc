(* Kernel fuzzing: random workloads with random (balanced) thread
   programs under every scheduler and both cost models.  Asserts that
   no kernel invariant ever breaks and that the execution trace is
   well-formed — deadline misses and blocked-forever threads are
   legitimate outcomes; crashes, corrupted queues, phantom context
   switches and unbalanced semaphores are not. *)

open Emeralds

let qtest ?(count = 120) ?print name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ?print ~name gen law)

let ms = Model.Time.ms
let us = Model.Time.us

(* --- random programs ------------------------------------------------ *)

(* Shared objects: two mutexes (nested only in s1 -> s2 order, so
   self-deadlock is impossible and cross-deadlock merely blocks), one
   wait queue, one mailbox, one state message. *)
type objects = {
  s1 : Types.sem;
  s2 : Types.sem;
  wq : Types.waitq;
  mb : Types.mailbox;
  sm : State_msg.t;
}

let fresh_objects kind =
  {
    s1 = Objects.sem ~kind ();
    s2 = Objects.sem ~kind ();
    wq = Objects.waitq ();
    mb = Objects.mailbox ~capacity:2 ();
    sm = State_msg.create ~depth:3 ~words:2;
  }

(* One program atom.  [allow_s1] prevents re-acquiring the outer mutex
   inside its own critical section (self-deadlock is a program bug,
   not a kernel behaviour we want to fuzz). *)
let gen_atom objs ~allow_s1 =
  QCheck2.Gen.(
    let mutex = if allow_s1 then objs.s1 else objs.s2 in
    frequency
      [
        ( 6,
          let+ n = int_range 50 800 in
          [ Program.compute (us n) ] );
        ( 2,
          let+ n = int_range 100 500 in
          Program.critical mutex (us n) );
        ( 1,
          let+ n = int_range 50 300 in
          [ Program.delay (us (500 + n)) ] );
        (1, return [ Program.signal objs.wq ]);
        (1, return [ Program.wait objs.wq ]);
        ( 1,
          let+ n = int_range 100 2_000 in
          [ Program.timed_wait objs.wq (us n) ] );
        (1, return [ Program.send objs.mb [| 1; 2 |] ]);
        (1, return [ Program.recv objs.mb ]);
        (1, return [ Program.state_write objs.sm [| 3; 4 |] ]);
        (1, return [ Program.state_read objs.sm ]);
      ])

(* A nested section: hold s1 across inner atoms that may block, take
   s2, signal, ... — the §6.3.2 blocking-while-holding patterns. *)
let gen_nested objs =
  QCheck2.Gen.(
    let* inner = gen_atom objs ~allow_s1:false in
    let+ n = int_range 50 200 in
    (Program.acquire objs.s1 :: inner)
    @ [ Program.compute (us n); Program.release objs.s1 ])

let gen_program objs =
  QCheck2.Gen.(
    let* len = int_range 1 5 in
    let+ atoms =
      list_repeat len
        (frequency [ (4, gen_atom objs ~allow_s1:true); (1, gen_nested objs) ])
    in
    List.concat atoms)

let gen_case =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* kind = oneofl [ Types.Standard; Types.Emeralds ] in
    let* spec_idx = int_bound 6 in
    let* costly = bool in
    let* seed = int_range 1 10_000 in
    return (n, kind, spec_idx, costly, seed))

(* Every scheduler the kernel ships: the classic three plus CSD with
   one, two and three DP queues (CSD-2/3/4) and the all-DP degenerate
   split.  Partitions shrink to fit small task counts. *)
let spec_of idx n =
  let spec =
    match idx with
    | 0 -> Sched.Edf
    | 1 -> Sched.Rm
    | 2 -> Sched.Rm_heap
    | 3 -> Sched.Csd [ max 1 (n / 2) ] (* CSD-2 *)
    | 4 -> Sched.Csd [ 1; 1 ] (* CSD-3 *)
    | 5 -> if n >= 3 then Sched.Csd [ 1; 1; 1 ] else Sched.Csd [ 1; 1 ]
      (* CSD-4 *)
    | _ -> Sched.Csd [ n ] (* every task in one DP queue *)
  in
  Sched.validate_partition spec ~n_tasks:n;
  spec

(* --- trace well-formedness ------------------------------------------ *)

let well_formed_trace entries horizon =
  let last_to = ref None in
  let holders : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let ok = ref true in
  let fail_if b = if b then ok := false in
  List.iter
    (fun (s : Sim.Trace.stamped) ->
      fail_if (s.at < 0 || s.at > horizon + ms 10);
      match s.entry with
      | Context_switch { from_tid; to_tid } ->
        (* switches chain: you can only switch away from the thread
           that last received the CPU *)
        fail_if (from_tid <> !last_to);
        last_to := to_tid
      | Sem_acquired { tid; sem } ->
        fail_if (Hashtbl.mem holders sem);
        Hashtbl.replace holders sem tid
      | Sem_released { tid; sem } -> (
        match Hashtbl.find_opt holders sem with
        | Some h ->
          fail_if (h <> tid);
          Hashtbl.remove holders sem
        | None -> ok := false)
      | _ -> ())
    entries;
  !ok

(* --- the property ---------------------------------------------------- *)

(* Build and run one random case.  Everything — task set, programs,
   environment events — derives deterministically from the case tuple,
   so calling this twice (fresh kernel objects each time) replays the
   same simulation; [make_enforcement], fed the generated programs,
   lets the differential and enforcement properties install budgets on
   an otherwise identical kernel. *)
let run_one ?make_enforcement (n, kind, spec_idx, costly, seed) =
  let rng = Util.Rng.create ~seed in
  let objs = fresh_objects kind in
  let taskset =
    Model.Taskset.of_list
      (List.init n (fun i ->
           let period =
             Util.Rng.choose rng [| ms 10; ms 20; ms 25; ms 40; ms 50 |]
           in
           Model.Task.make ~id:(i + 1) ~period ~wcet:(ms 2) ()))
  in
  (* derive each task's program from the deterministic rng *)
  let gen = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
  let programs = Array.init n (fun _ -> gen (gen_program objs)) in
  let k =
    Kernel.create
      ~cost:(if costly then Sim.Cost.m68040 else Sim.Cost.zero)
      ~spec:(spec_of spec_idx n) ~taskset
      ~programs:(fun task -> programs.(task.id - 1))
      ~optimized_pi:(kind = Types.Emeralds) ()
  in
  (match make_enforcement with
  | None -> ()
  | Some f -> Kernel.set_enforcement k (Some (f programs)));
  let horizon = ms 150 in
  (* random environment: an interrupt source that signals the shared
     wait queue and publishes the state message, raised at random
     instants; stray wait-queue signals from kernel context; sporadic
     job triggers on a random task *)
  Kernel.register_irq k ~irq:1 ~signals:[ objs.wq ] ~writes:[ objs.sm ]
    ~handler:(fun () ->
      Kernel.signal_waitq k objs.wq;
      State_msg.write objs.sm [| 7; 8 |])
    ();
  for _ = 1 to Util.Rng.int rng 6 do
    Kernel.raise_irq_at k ~at:(us (Util.Rng.int rng 150_000)) ~irq:1
  done;
  for _ = 1 to Util.Rng.int rng 4 do
    Kernel.at k
      ~at:(us (Util.Rng.int rng 150_000))
      (fun () -> Kernel.signal_waitq k objs.wq)
  done;
  let sporadic_tid = 1 + Util.Rng.int rng n in
  for _ = 1 to Util.Rng.int rng 3 do
    Kernel.trigger_job_at k ~at:(us (Util.Rng.int rng 150_000)) ~tid:sporadic_tid
  done;
  (* interleave structural checks with execution *)
  let rec probes t =
    if t < horizon then begin
      Kernel.at k ~at:t (fun () -> Kernel.check_invariants k);
      probes (t + ms 13)
    end
  in
  probes (ms 1);
  Kernel.run k ~until:horizon;
  Kernel.check_invariants k;
  (k, horizon)

let run_case case =
  let k, horizon = run_one case in
  let tr = Kernel.trace k in
  Sim.Trace.busy_time tr <= horizon
  && well_formed_trace (Sim.Trace.entries tr) horizon

let prop_kernel_fuzz =
  qtest "random programs never break kernel invariants" gen_case run_case

let prop_busy_conservation =
  qtest ~count:60 "zero-cost: busy time equals completed work"
    QCheck2.Gen.(int_range 1 5_000)
    (fun seed ->
      let rng = Util.Rng.create ~seed in
      let n = 1 + Util.Rng.int rng 4 in
      let taskset =
        Model.Taskset.of_list
          (List.init n (fun i ->
               Model.Task.make ~id:(i + 1)
                 ~period:(Util.Rng.choose rng [| ms 10; ms 20; ms 40 |])
                 ~wcet:(us (500 + Util.Rng.int rng 2000))
                 ()))
      in
      let k =
        Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset ()
      in
      let horizon = ms 200 in
      Kernel.run k ~until:horizon;
      (* with zero overhead, banked busy time = sum of completed job
         work + possibly one partial job per task *)
      let completed_work =
        List.fold_left
          (fun acc (s : Kernel.task_stats) ->
            let tcb = Kernel.tcb k ~tid:s.tid in
            acc + (s.jobs_completed * tcb.Types.task.wcet))
          0 (Kernel.stats k)
      in
      let busy = Sim.Trace.busy_time (Kernel.trace k) in
      busy >= completed_work && busy <= completed_work + (n * ms 3))

(* --- lint cross-checks ----------------------------------------------- *)

(* A kernel-level deadlock: a cycle of threads each blocked in [acquire]
   on a semaphore held by the next.  (A thread parked on a wait queue
   that never gets signalled is starvation, not deadlock — random
   programs do that legitimately.) *)
let sem_wait_cycle k ~n =
  let next tid =
    match (Kernel.tcb k ~tid).Types.waiting_on with
    | Types.On_sem s ->
      Option.map (fun (h : Types.tcb) -> h.Types.tid) s.Types.holder
    | _ -> None
  in
  let rec chase seen tid =
    List.mem tid seen
    || match next tid with None -> false | Some t -> chase (tid :: seen) t
  in
  List.exists (fun tid -> chase [] tid) (List.init n (fun i -> i + 1))

(* Programs the static verifier passes must run deadlock-free: lint
   errors are exactly the class of bugs that turn into stuck kernels,
   so error-free random programs must simulate without a semaphore
   wait cycle and keep every kernel invariant. *)
let run_lint_clean (n, kind, spec_idx, costly, seed) =
  let rng = Util.Rng.create ~seed in
  let objs = fresh_objects kind in
  let taskset =
    Model.Taskset.of_list
      (List.init n (fun i ->
           let period =
             Util.Rng.choose rng [| ms 10; ms 20; ms 25; ms 40; ms 50 |]
           in
           Model.Task.make ~id:(i + 1) ~period ~wcet:(ms 2) ()))
  in
  let gen = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
  let programs =
    Array.of_list (List.init n (fun _ -> gen (gen_program objs)))
  in
  let programs_fn (task : Model.Task.t) = programs.(task.id - 1) in
  let ctx = Lint.Ctx.make ~taskset ~programs:programs_fn () in
  if Lint.Diag.errors (Lint.Report.run ctx) > 0 then true
  else begin
    let k =
      Kernel.create
        ~cost:(if costly then Sim.Cost.m68040 else Sim.Cost.zero)
        ~spec:(spec_of spec_idx n) ~taskset ~programs:programs_fn
        ~optimized_pi:(kind = Types.Emeralds) ()
    in
    Kernel.run k ~until:(ms 150);
    Kernel.check_invariants k;
    not (sem_wait_cycle k ~n)
  end

let prop_lint_clean_runs =
  qtest "lint-clean programs never deadlock the kernel" gen_case
    run_lint_clean

(* And the flip side: splice an opposite-order nesting into otherwise
   random programs and the deadlock check must fire. *)
let prop_injected_cycle =
  qtest ~count:80 "injected lock-order cycle is flagged"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let objs = fresh_objects Types.Emeralds in
      let gen = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
      let filler () = gen (gen_atom objs ~allow_s1:false) in
      let nest x y =
        [
          Program.acquire x; Program.compute (us 80); Program.acquire y;
          Program.release y; Program.release x;
        ]
      in
      let p1 = filler () @ nest objs.s1 objs.s2 @ filler () in
      let p2 = filler () @ nest objs.s2 objs.s1 @ filler () in
      let taskset =
        Model.Taskset.of_list
          [
            Model.Task.make ~id:1 ~period:(ms 10) ~wcet:(ms 2) ();
            Model.Task.make ~id:2 ~period:(ms 20) ~wcet:(ms 2) ();
          ]
      in
      let ctx =
        Lint.Ctx.make ~taskset
          ~programs:(fun t -> if t.id = 1 then p1 else p2)
          ()
      in
      List.exists
        (fun (d : Lint.Diag.t) ->
          d.severity = Lint.Diag.Error && d.check = "deadlock")
        (Lint.Report.run ctx))

(* --- absint cross-checks --------------------------------------------- *)

(* The abstract interpreter's bounds are sound for whatever the kernel
   actually does with random programs: under zero kernel cost every
   observed per-job execution time sits under the derived WCET bound,
   and the derived footprint accounts for every kernel object the
   trace shows in use. *)
let run_absint_sound (n, kind, _spec_idx, _costly, seed) =
  let rng = Util.Rng.create ~seed in
  let objs = fresh_objects kind in
  let taskset =
    Model.Taskset.of_list
      (List.init n (fun i ->
           let period =
             Util.Rng.choose rng [| ms 10; ms 20; ms 25; ms 40; ms 50 |]
           in
           Model.Task.make ~id:(i + 1) ~period ~wcet:(ms 2) ()))
  in
  let gen = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
  let programs =
    Array.of_list (List.init n (fun _ -> gen (gen_program objs)))
  in
  let programs_fn (task : Model.Task.t) = programs.(task.id - 1) in
  let sc =
    {
      Workload.Scenario.name = "fuzz";
      taskset;
      programs = programs_fn;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let r = Absint.Report.analyze ~cost:Sim.Cost.zero sc in
  let rank_of_tid tid =
    let tasks = Model.Taskset.tasks taskset in
    let rec find i = if tasks.(i).Model.Task.id = tid then i else find (i + 1) in
    find 0
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Rm ~taskset
      ~programs:programs_fn ()
  in
  Kernel.run k ~until:(ms 150);
  let entries = Sim.Trace.entries (Kernel.trace k) in
  let wcet_sound =
    List.for_all
      (fun (tid, t) ->
        Absint.Itv.dominates
          r.tasks.(rank_of_tid tid).Absint.Report.summary.exec t)
      (Test_absint.observed_job_times entries)
  in
  (* objects the trace shows in use, vs the derived configuration *)
  let sems = Hashtbl.create 4
  and mbs = Hashtbl.create 4
  and sms = Hashtbl.create 4 in
  List.iter
    (fun (st : Sim.Trace.stamped) ->
      match st.entry with
      | Sim.Trace.Sem_acquired { sem; _ } -> Hashtbl.replace sems sem ()
      | Sim.Trace.Msg_sent { mailbox; _ } -> Hashtbl.replace mbs mailbox ()
      | Sim.Trace.State_written { state; _ } -> Hashtbl.replace sms state ()
      | _ -> ())
    entries;
  let footprint_covers =
    Hashtbl.length sems <= r.config.Footprint.semaphores
    && Hashtbl.length mbs <= List.length r.config.Footprint.mailboxes
    && Hashtbl.length sms <= List.length r.config.Footprint.state_messages
    && Model.Taskset.size taskset = r.config.Footprint.threads
  in
  wcet_sound && footprint_covers

let prop_absint_sound =
  qtest ~count:80
    "absint WCET and footprint bounds cover random executions" gen_case
    run_absint_sound

(* --- memory cross-checks --------------------------------------------- *)

(* Realize each generated spec ONCE and feed the same scenario to the
   abstract interpreter, the lint and the kernel, so pool ids line up
   without any rank mapping.  Soundness: the absint per-(task, pool)
   peak-live upper bound dominates the high-water mark the kernel
   observed; agreement: any block the kernel reclaimed at job end was
   predicted by the exact alloc-discipline walk. *)
let lint_predicts_leak diags tid =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  List.exists
    (fun (d : Lint.Diag.t) ->
      d.check = "alloc-discipline"
      && d.task = Some tid
      && contains d.message "still held at job end")
    diags

let run_mem_sound seed =
  let spec = List.hd (Workload.Generator.scenario_specs ~seed ~count:1 ()) in
  let sc = Workload.Generator.realize spec in
  let rep = Absint.Report.analyze sc in
  let diags =
    Lint.Report.run
      (Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
         ~taskset:sc.taskset ~programs:sc.programs ())
  in
  let horizon =
    let tasks = Model.Taskset.tasks sc.taskset in
    let maxp =
      Array.fold_left (fun a (t : Model.Task.t) -> max a t.period) 0 tasks
    in
    min (2 * maxp) (ms 500)
  in
  let cfg = Fault.Inject.default_config ~scenario:sc ~horizon ~seed:9 () in
  let k = (Fault.Inject.run cfg).kernel in
  let peak_bound tid pool =
    match
      Array.find_opt
        (fun (tb : Absint.Report.task_bound) ->
          tb.task.Model.Task.id = tid)
        rep.tasks
    with
    | None -> None
    | Some tb -> List.assoc_opt pool tb.summary.Absint.Exec.peak_live
  in
  List.for_all
    (fun (m : Kernel.mem_stats) ->
      let dominated =
        match peak_bound m.m_tid m.m_pool with
        | None -> false (* runtime allocation the analysis never saw *)
        | Some itv -> (
          match Absint.Itv.hi_int itv with
          | None -> true (* unbounded trivially dominates *)
          | Some hi -> m.m_high_water <= hi)
      in
      let leak_agreed =
        m.m_leaked = 0 || lint_predicts_leak diags m.m_tid
      in
      dominated && leak_agreed)
    (Kernel.mem_stats k)

let prop_mem_sound =
  qtest ~count:40
    "absint peak-live bounds dominate pool high-water and lint sees leaks"
    QCheck2.Gen.(int_range 1 5_000)
    run_mem_sound

(* --- enforcement cross-checks ---------------------------------------- *)

(* Kernel objects get globally fresh ids, so two replays of the same
   case produce traces identical up to a renaming of sem/mailbox/state
   ids; canonicalize by first occurrence before comparing.  Notes
   interpolate the same ids into free text ("tau4 held back awaiting
   sem844"), so mask any digit run following an object prefix. *)
let mask_note s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let prefixes = [ "sem"; "waitq"; "mbox"; "state" ] in
  let i = ref 0 in
  while !i < n do
    let matched =
      List.find_opt
        (fun p ->
          let lp = String.length p in
          !i + lp < n && String.sub s !i lp = p && is_digit s.[!i + lp])
        prefixes
    in
    (match matched with
    | Some p ->
      Buffer.add_string b p;
      Buffer.add_char b '#';
      i := !i + String.length p;
      while !i < n && is_digit s.[!i] do
        incr i
      done
    | None ->
      Buffer.add_char b s.[!i];
      incr i)
  done;
  Buffer.contents b

let normalize_ids entries =
  let tbl : (string * int, int) Hashtbl.t = Hashtbl.create 8 in
  let canon kind id =
    match Hashtbl.find_opt tbl (kind, id) with
    | Some c -> c
    | None ->
      let c = Hashtbl.length tbl in
      Hashtbl.add tbl (kind, id) c;
      c
  in
  List.map
    (fun (s : Sim.Trace.stamped) ->
      let entry =
        match s.entry with
        | Sim.Trace.Sem_acquired { tid; sem } ->
          Sim.Trace.Sem_acquired { tid; sem = canon "sem" sem }
        | Sem_blocked { tid; sem } -> Sem_blocked { tid; sem = canon "sem" sem }
        | Sem_released { tid; sem } ->
          Sem_released { tid; sem = canon "sem" sem }
        | Approach_parked { tid; sem } ->
          Approach_parked { tid; sem = canon "sem" sem }
        | Msg_sent { tid; mailbox; words } ->
          Msg_sent { tid; mailbox = canon "mb" mailbox; words }
        | Msg_received { tid; mailbox; words; queued_for } ->
          Msg_received { tid; mailbox = canon "mb" mailbox; words; queued_for }
        | State_written { tid; state; seq } ->
          State_written { tid; state = canon "sm" state; seq }
        | State_read { tid; state; seq } ->
          State_read { tid; state = canon "sm" state; seq }
        | Note s -> Note (mask_note s)
        | e -> e
      in
      { s with entry })
    entries

let trace_signature k =
  let tr = Kernel.trace k in
  ( normalize_ids (Sim.Trace.entries tr),
    Sim.Trace.busy_time tr,
    Sim.Trace.context_switches tr )

let total_compute program =
  List.fold_left
    (fun acc -> function Types.Compute d -> acc + d | _ -> acc)
    0 program

(* The harness-wide differential: budgets that can never be exhausted
   (each task's budget = its program's whole compute demand) with
   notify-only policies must be invisible — same entries, busy time
   and switches as the plain pre-enforcement kernel. *)
let prop_enforcement_differential =
  qtest ~count:60 "unexercised enforcement is trace-invisible" gen_case
    (fun case ->
      let plain, _ = run_one case in
      let enforced, _ =
        run_one
          ~make_enforcement:(fun programs ->
            {
              Kernel.budget_of =
                (fun t -> Some (total_compute programs.(t.id - 1)));
              policy = Kernel.Notify_only;
              miss = Kernel.Miss_record;
              shed_one_in = None;
            })
          case
      in
      trace_signature plain = trace_signature enforced)

(* Aggressive enforcement — tight budgets, kill policies, skip-over
   shedding — must never corrupt the kernel: invariants hold, the
   trace stays well-formed, and no job consumes more than its budget
   plus the probe's 1 ns. *)
let enforcement_case case =
  let budget = us 1200 in
  let k, horizon =
    run_one
      ~make_enforcement:(fun _ ->
        {
          Kernel.budget_of = (fun _ -> Some budget);
          policy = Kernel.Kill_job;
          miss = Kernel.Miss_kill;
          shed_one_in = Some 2;
        })
      case
  in
  let tr = Kernel.trace k in
  Sim.Trace.busy_time tr <= horizon
  && well_formed_trace (Sim.Trace.entries tr) horizon
  && List.for_all
       (fun (s : Kernel.enf_stats) -> s.e_budget_used <= budget + 1)
       (Kernel.enforcement_stats k)

let prop_enforcement_fuzz =
  qtest ~count:60 "kill/shed enforcement never breaks kernel invariants"
    gen_case enforcement_case

(* Cases this fuzzer once minimized to budget-accounting escapes, now
   run event-precise: the first, found on a 700us-tick kernel,
   deferred an already-banked overrun past every tick boundary the job
   stopped short of; the second lost enforcement (and the deadline
   check) for a whole job whose number collided with an earlier
   sporadic arrival's. *)
let enforcement_regressions =
  Alcotest.test_case "enforcement budget-escape regressions" `Quick
    (fun () ->
      List.iter
        (fun case ->
          Alcotest.(check bool) "budget bound holds" true
            (enforcement_case case))
        [
          (2, Types.Standard, 0, false, 122);
          (2, Types.Standard, 0, false, 1640);
        ])

(* Fabric differential: with the empty fault plan, a kernel running as
   a shard — bus, heartbeats, reliable endpoints all in the loop —
   must produce exactly the trace of the same taskset on a standalone
   kernel.  The fabric may only perturb a kernel through explicit
   faults or migrations. *)
let gen_fabric_case =
  QCheck2.Gen.(
    map2
      (fun n seed -> (n, seed))
      (int_range 1 3)
      (int_range 1 10_000))

let fabric_taskset ~seed n =
  let rng = Util.Rng.create ~seed in
  List.init n (fun i ->
      let period = Util.Rng.choose rng [| ms 10; ms 20; ms 25; ms 40; ms 50 |] in
      Model.Task.make ~id:(i + 1) ~period ~wcet:(ms 2) ())

let prop_fabric_empty_plan_differential =
  qtest ~count:40 "fabric with empty plan is trace-invisible" gen_fabric_case
    (fun (n, seed) ->
      let horizon = ms 150 in
      let tasks = fabric_taskset ~seed n in
      let peer =
        (* a second shard with its own load, sharing the wire *)
        List.init 2 (fun i ->
            Model.Task.make ~id:(100 + i) ~period:(ms 20) ~wcet:(ms 1) ())
      in
      let standalone =
        Kernel.create ~cost:Sim.Cost.m68040 ~spec:Sched.Edf
          ~taskset:(Model.Taskset.of_list tasks) ()
      in
      Kernel.run standalone ~until:horizon;
      let engine = Sim.Engine.create () in
      let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
      let cluster =
        Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
          ~spec:Sched.Edf ~seed ~assignments:[ (0, tasks); (1, peer) ] ()
      in
      Fabric.Cluster.install_plan cluster Fault.Plan.empty;
      Fabric.Cluster.run cluster ~until:horizon;
      match Fabric.Cluster.kernel cluster ~node:0 with
      | None -> false
      | Some sharded -> trace_signature standalone = trace_signature sharded)

(* --- the key=value readers ------------------------------------------ *)

(* Byte mutations of the repository's own inputs: the plans README
   shows after --plan, the fabric presets', the e2e oracle's, one
   clause of every kind and two of test_fault's; and
   workloads/*.tasks. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let plan_seeds =
  lazy
    (let readme = read_file "../README.md" in
     let rec scan i acc =
       match String.index_from_opt readme i '\'' with
       | None -> acc
       | Some j when j >= 7 && String.sub readme (j - 7) 7 = "--plan " -> (
         match String.index_from_opt readme (j + 1) '\'' with
         | None -> acc
         | Some k ->
           scan (k + 1) (String.sub readme (j + 1) (k - j - 1) :: acc))
       | Some j -> scan (j + 1) acc
     in
     Array.of_list
       (scan 0 []
       @ List.map
           (fun (p : Fabric.Preset.t) -> Fault.Plan.render p.plan)
           Fabric.Preset.all
       @ [ "frame-drop:one-in=31;node-crash:node=1,at=40ms";
           Fault.Plan.render Test_fault.full_plan; "jitter:tid=1,amp=750";
           "burst:tid=1,at=20ms,count=3,spacing=3000000000000000000ns" ]))

let task_seeds =
  lazy
    (Sys.readdir "../workloads" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tasks")
    |> List.map (fun f -> read_file (Filename.concat "../workloads" f))
    |> Array.of_list)

(* a seed, by index modulo the seed count, and edits to it: replace
   one byte, insert before it or delete it, at a position modulo the
   length; what goes in is a byte, mostly of the syntax's own, or a
   numeral *)
let gen_edits =
  QCheck2.Gen.(
    let piece =
      oneof
        [ map (String.make 1) (map Char.chr (int_range 0 255));
          map (String.make 1)
            (oneofl
               (List.of_seq (String.to_seq ":;,= -.#\n\t0123456789msunx_")));
          map string_of_int nat ]
    in
    pair nat (list_size (int_range 1 4) (triple (int_range 0 2) nat piece)))

let mutate seeds (i, edits) =
  let seeds = Lazy.force seeds in
  List.fold_left
    (fun s (op, at, piece) ->
      let n = String.length s in
      let at = at mod (n + 1) in
      let tail k = String.sub s k (n - k) in
      match op with
      | 0 when at < n -> String.sub s 0 at ^ piece ^ tail (at + 1)
      | 1 -> String.sub s 0 at ^ piece ^ tail at
      | _ when at < n -> String.sub s 0 at ^ tail (at + 1)
      | _ -> s)
    seeds.(i mod Array.length seeds)
    edits

(* Neither reader may raise, and what it accepts renders to text that
   reads back as the same value *)
let prop_plan_reader =
  qtest ~count:10_000 "plan reader: mutated plans round-trip"
    ~print:(fun e -> Printf.sprintf "%S" (mutate plan_seeds e))
    gen_edits
    (fun e ->
      match Fault.Plan.parse (mutate plan_seeds e) with
      | Error _ -> true
      | Ok p -> Fault.Plan.parse (Fault.Plan.render p) = Ok p)

let prop_task_file_reader =
  qtest ~count:10_000 "task-file reader: mutated files round-trip"
    ~print:(fun e -> Printf.sprintf "%S" (mutate task_seeds e))
    gen_edits
    (fun e ->
      match Workload.Spec_file.parse (mutate task_seeds e) with
      | Error _ -> true
      | Ok ts ->
        Workload.Spec_file.parse (Workload.Spec_file.to_string ts) = Ok ts)

let suite =
  [
    prop_kernel_fuzz; prop_busy_conservation; prop_lint_clean_runs;
    prop_injected_cycle; prop_absint_sound; prop_mem_sound;
    prop_enforcement_differential; prop_enforcement_fuzz;
    enforcement_regressions; prop_fabric_empty_plan_differential;
    prop_plan_reader; prop_task_file_reader;
  ]

