(* The bounded model checker: the lint <-> MC <-> RTA cross-validation
   triangle, counterexample replay determinism, the state-message tear
   bound, and the kernel-vs-checker differential on deterministic
   schedules. *)

let ms = Model.Time.ms
let us = Model.Time.us

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lint_errors (s : Workload.Scenario.t) =
  let ctx =
    Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
      ~taskset:s.taskset ~programs:s.programs ()
  in
  Lint.Report.run ctx

let has_error_check name diags =
  List.exists
    (fun (d : Lint.Diag.t) ->
      d.severity = Lint.Diag.Error && d.check = name)
    diags

(* --- seeded deadlock: lint flags it, the checker witnesses it ------- *)

let seeded_deadlock_witnessed () =
  let s = Workload.Scenario.seeded_deadlock () in
  check "lint flags the seeded lock-order cycle" true
    (has_error_check "deadlock" (lint_errors s));
  let m = Mc.Machine.of_scenario s in
  let bounds = Mc.Explorer.default_bounds m in
  let props = [ Mc.Props.deadlock ] in
  let r = Mc.Explorer.check ~props ~bounds m in
  match r.verdict with
  | `Ok -> Alcotest.fail "checker missed the seeded deadlock"
  | `Violation cex ->
    check "violated property is deadlock" true (cex.prop = "deadlock");
    (* the cycle is reachable on the deterministic schedule: both
       tasks' ranks are unique and there are no arrival windows *)
    check_int "witness needs no nondeterministic choices" 0
      (List.length cex.choices);
    check "deadlock strikes at 5ms" true (cex.at = ms 5);
    let trace = Mc.Counterexample.replay m ~props cex in
    check "replay trace mentions both semaphore blocks" true
      (List.length
         (List.filter
            (fun (st : Sim.Trace.stamped) ->
              match st.entry with Sim.Trace.Sem_blocked _ -> true | _ -> false)
            (Sim.Trace.entries trace))
      = 2)

(* --- presets: lint-clean and deadlock-free within bounds ------------ *)

let presets_agree () =
  List.iter
    (fun (s : Workload.Scenario.t) ->
      check_int
        (Printf.sprintf "%s is lint-clean" s.name)
        0
        (Lint.Diag.errors (lint_errors s));
      let m = Mc.Machine.of_scenario s in
      let bounds =
        {
          Mc.Explorer.horizon = min m.hyperperiod (ms 100);
          max_states = 30_000;
          max_depth = 2_000;
        }
      in
      let props =
        [ Mc.Props.deadlock; Mc.Props.pi; Mc.Props.invariants; Mc.Props.tear ]
      in
      let r = Mc.Explorer.check ~props ~bounds m in
      (match r.verdict with
      | `Ok -> ()
      | `Violation cex ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" s.name
             (Mc.Counterexample.render m ~props cex)));
      check
        (Printf.sprintf "%s explored some states" s.name)
        true (r.expansions > 0 && r.jobs > 0))
    (Workload.Scenario.all ())

(* --- partial-order reduction: same verdicts, fewer states ----------- *)

let por_sound_on_ties () =
  (* table2 under EDF has genuine dispatch ties between pure-compute
     tasks (equal absolute deadlines), which is exactly what the
     reduction merges *)
  let s = Option.get (Workload.Scenario.make "table2") in
  let m = Mc.Machine.of_scenario ~sched:Mc.Machine.Edf s in
  let bounds =
    { Mc.Explorer.horizon = ms 50; max_states = 50_000; max_depth = 5_000 }
  in
  let props = [ Mc.Props.deadlock; Mc.Props.invariants ] in
  let with_por = Mc.Explorer.check ~por:true ~props ~bounds m in
  let without = Mc.Explorer.check ~por:false ~props ~bounds m in
  check "reduced run is clean" true (with_por.verdict = `Ok);
  check "unreduced run is clean" true (without.verdict = `Ok);
  check "reduction actually pruned tie choices" true
    (with_por.por_skipped > 0);
  check "reduction explored no more states than full run" true
    (with_por.expansions <= without.expansions)

(* --- RTA cross-check: observed responses within analytical bounds --- *)

let rows_of (ts : Model.Taskset.t) =
  Array.map
    (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
    (Model.Taskset.tasks ts)

let rta_dominates_mc () =
  (* table2: pure computation, fixed priority, deterministic — the
     checker observes the exact critical-instant responses and RTA
     must bound every one of them *)
  let s = Option.get (Workload.Scenario.make "table2") in
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = ms 200; max_states = 50_000; max_depth = 5_000 }
  in
  let r = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
  check "table2 exploration complete" true (not r.truncated);
  let rows = rows_of s.taskset in
  Array.iteri
    (fun i _ ->
      match Analysis.Rta.response_time ~tasks:rows i with
      | None -> ()
      | Some bound ->
        if r.max_response.(i) > bound then
          Alcotest.fail
            (Printf.sprintf
               "table2 rank %d: observed response %dns exceeds RTA bound %dns"
               i r.max_response.(i) bound))
    rows;
  (* the highest-priority task is never preempted: its observed
     response must be exactly its WCET *)
  check_int "rank 0 response = wcet" m.tasks.(0).wcet r.max_response.(0);
  (* engine: semaphores and a nondeterministic crank IRQ; the blocking
     terms extracted by the static verifier feed RTA, and the bound
     must dominate everything the checker can provoke within the
     horizon *)
  let s = Option.get (Workload.Scenario.make "engine") in
  let ctx =
    Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
      ~taskset:s.taskset ~programs:s.programs ()
  in
  let blocking = Lint.Blocking_terms.blocking_terms ctx in
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = ms 40; max_states = 20_000; max_depth = 2_000 }
  in
  let r = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
  let rows = rows_of s.taskset in
  Array.iteri
    (fun i _ ->
      match Analysis.Rta.response_time ~blocking ~tasks:rows i with
      | None -> ()
      | Some bound ->
        if r.max_response.(i) > bound then
          Alcotest.fail
            (Printf.sprintf
               "engine rank %d: observed response %dns exceeds RTA bound %dns \
                (blocking %dns)"
               i r.max_response.(i) bound blocking.(i)))
    rows;
  check "engine saw jobs complete" true (r.jobs > 0)

(* --- the tear bound -------------------------------------------------- *)

(* One reader at top priority with a 1 ms copy span; an interrupt
   writer with a 300 us minimum inter-arrival.  Up to 3 writes can
   complete inside one copy, so depth 3 (tolerating 1) must tear and
   depth 6 = ceil(1000/300) + 2 (the paper's bound) must not. *)
let tear_scenario ~depth =
  let sm = Emeralds.State_msg.create ~depth ~words:4 in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"reader" ~period:(ms 10) ~wcet:(ms 2) ();
      ]
  in
  let programs (_ : Model.Task.t) =
    [ Emeralds.Program.state_read sm; Emeralds.Program.compute (us 200) ]
  in
  Workload.Scenario.
    {
      name = Printf.sprintf "tear-depth-%d" depth;
      taskset;
      programs;
      irq_sources =
        [
          {
            irq = 1;
            min_interarrival = us 300;
            max_interarrival = us 500;
            signals = [];
            writes = [ sm ];
          };
        ];
      irq_signals = [];
      irq_writes = [ sm ];
    }

let tear_bound () =
  let props = [ Mc.Props.tear ] in
  let bounds m =
    { Mc.Explorer.horizon = min m.Mc.Machine.hyperperiod (ms 2);
      max_states = 20_000;
      max_depth = 1_000;
    }
  in
  (* depth 3 with a 1 ms copy: torn *)
  let m = Mc.Machine.of_scenario ~read_span:(ms 1) (tear_scenario ~depth:3) in
  let r = Mc.Explorer.check ~props ~bounds:(bounds m) m in
  (match r.verdict with
  | `Ok -> Alcotest.fail "depth 3 must admit a torn read"
  | `Violation cex ->
    check "violation is a tear" true (cex.prop = "tear");
    check "tear witness needs IRQ timing choices" true
      (List.length cex.choices > 0);
    (* the witness must replay to the same violation, twice *)
    let t1 = Mc.Counterexample.replay m ~props cex in
    let t2 = Mc.Counterexample.replay m ~props cex in
    check_int "replay is deterministic"
      (List.length (Sim.Trace.entries t1))
      (List.length (Sim.Trace.entries t2)));
  (* the paper's depth bound: ceil(read/write) + 2 = 6 is safe *)
  let m = Mc.Machine.of_scenario ~read_span:(ms 1) (tear_scenario ~depth:6) in
  let r = Mc.Explorer.check ~props ~bounds:(bounds m) m in
  check "paper-depth buffer is tear-free" true (r.verdict = `Ok);
  check "tear-free verdict is not a truncation artifact" true
    (not r.truncated);
  (* atomic reads (span 0) cannot tear at any depth *)
  let m = Mc.Machine.of_scenario (tear_scenario ~depth:2) in
  let r = Mc.Explorer.check ~props ~bounds:(bounds m) m in
  check "atomic reads never tear" true (r.verdict = `Ok)

(* --- sporadic arrivals ---------------------------------------------- *)

let sporadic_explored () =
  let sem = Emeralds.Objects.sem () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"ctl" ~period:(ms 10) ~wcet:(ms 2) ();
        Model.Task.make ~id:2 ~name:"burst" ~period:(ms 20) ~wcet:(ms 3) ();
      ]
  in
  let programs (t : Model.Task.t) =
    let open Emeralds.Program in
    if t.id = 1 then compute (us 500) :: critical sem (us 800)
    else critical sem (ms 2) @ [ compute (us 300) ]
  in
  let s =
    Workload.Scenario.
      {
        name = "sporadic-demo";
        taskset;
        programs;
        irq_sources = [];
        irq_signals = [];
        irq_writes = [];
      }
  in
  let m =
    Mc.Machine.of_scenario ~sporadic:[ (2, ms 5, ms 9) ] s
  in
  let bounds =
    { Mc.Explorer.horizon = ms 30; max_states = 20_000; max_depth = 1_000 }
  in
  let props = [ Mc.Props.deadlock; Mc.Props.pi; Mc.Props.invariants ] in
  let r = Mc.Explorer.check ~props ~bounds m in
  check "sporadic exploration is clean" true (r.verdict = `Ok);
  (* silence, earliest and latest arrivals all fork: more than one
     deterministic segment must have been expanded *)
  check "sporadic windows actually branch" true (r.expansions > 3)

(* --- kernel vs checker on deterministic schedules ------------------- *)

let hand_built name tasks programs =
  Workload.Scenario.
    {
      name;
      taskset = Model.Taskset.of_list tasks;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }

(* Under EDF, tau1 (rank 0, due at 52 ms) and tau2 (rank 1, due at
   35 ms) both wait for tau3's semaphore: the earlier deadline is
   served first. *)
let edf_handoff () =
  let s = Emeralds.Objects.sem () in
  hand_built "edf-handoff"
    [
      Model.Task.make ~id:1 ~period:(ms 50) ~phase:(ms 2) ~wcet:(ms 1) ();
      Model.Task.make ~id:2 ~period:(ms 60) ~deadline:(ms 30) ~phase:(ms 5)
        ~wcet:(ms 1) ();
      Model.Task.make ~id:3 ~period:(ms 200) ~wcet:(ms 20) ();
    ]
    (fun (t : Model.Task.t) -> Emeralds.Program.critical s t.wcet)

(* Under RM, tau3 waits on Q while it holds S, and tau1's block on S
   boosts it to rank 0: tau4's first signal wakes tau3, not tau2. *)
let rm_boosted_waiter () =
  let s = Emeralds.Objects.sem () and q = Emeralds.Objects.waitq () in
  let task id period phase wcet =
    Model.Task.make ~id ~period:(ms period) ~phase:(ms phase) ~wcet:(ms wcet) ()
  in
  hand_built "rm-boosted-waiter"
    [ task 1 10 2 1; task 2 20 1 1; task 3 40 0 1; task 4 80 0 4 ]
    (fun (t : Model.Task.t) ->
      let open Emeralds.Program in
      match t.id with
      | 1 -> critical s (ms 1)
      | 2 -> [ wait q; compute (ms 1) ]
      | 3 -> [ acquire s; wait q; compute (ms 1); release s ]
      | _ -> [ compute (ms 3); signal q; compute (ms 1); signal q ])

let kernel_differential () =
  List.iter
    (fun (s, spec, sched, horizon) ->
      let s : Workload.Scenario.t = s () in
      let k =
        Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec ~taskset:s.taskset
          ~programs:s.programs ()
      in
      Emeralds.Kernel.run k ~until:horizon;
      let m = Mc.Machine.of_scenario ~sched s in
      let bounds =
        { Mc.Explorer.horizon = horizon; max_states = 50_000; max_depth = 5_000 }
      in
      let r = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
      List.iter
        (fun (st : Emeralds.Kernel.task_stats) ->
          match Mc.Machine.task_of_tid m st.tid with
          | None -> Alcotest.fail "unknown tid in kernel stats"
          | Some mt ->
            check_int
              (Printf.sprintf "%s task %d worst response: kernel = checker"
                 s.name st.tid)
              st.max_response
              r.max_response.(mt.idx))
        (Emeralds.Kernel.stats k))
    [
      ( (fun () -> Option.get (Workload.Scenario.make "table2")),
        Emeralds.Sched.Rm, Mc.Machine.Fp, ms 100 );
      (edf_handoff, Emeralds.Sched.Edf, Mc.Machine.Edf, ms 200);
      (rm_boosted_waiter, Emeralds.Sched.Rm, Mc.Machine.Fp, ms 9);
    ]

(* --- branch forking: the checker explores both arms ----------------- *)

(* A violation hiding behind one branch outcome: the taken arm
   over-commits a one-block pool, the untaken arm is innocuous.  The
   checker must fork on the branch, pin the guilty outcome in the
   witness's choice list, and replay must steer the kernel down that
   exact path — visible as [Branch] trace entries matching the
   choices. *)
let branch_fork_and_replay () =
  let pool = Emeralds.Objects.pool ~block_bytes:16 ~capacity:1 () in
  let ts =
    Model.Taskset.of_list
      [ Model.Task.make ~id:1 ~period:(ms 10) ~wcet:(ms 3) () ]
  in
  let programs (_ : Model.Task.t) =
    let open Emeralds.Program in
    [
      compute (us 100);
      if_input
        [ alloc pool; alloc pool; compute (us 100); free pool; free pool ]
        [ compute (us 200) ];
    ]
  in
  let s =
    {
      Workload.Scenario.name = "branch-overcommit";
      taskset = ts;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = ms 10; max_states = 1_000; max_depth = 500 }
  in
  let props = [ Mc.Props.mem ] in
  let r = Mc.Explorer.check ~props ~bounds m in
  match r.verdict with
  | `Ok -> Alcotest.fail "checker missed the over-commit behind the branch"
  | `Violation cex ->
    check "mem property violated" true (cex.prop = "mem");
    let chosen =
      List.filter_map
        (function
          | Mc.Step.Take_branch { taken; _ } -> Some taken | _ -> None)
        cex.choices
    in
    check "witness pins exactly the guilty branch outcome" true
      (chosen = [ true ]);
    let trace = Mc.Counterexample.replay m ~props cex in
    let recorded =
      List.filter_map
        (fun (st : Sim.Trace.stamped) ->
          match st.entry with
          | Sim.Trace.Branch { tid; idx; taken; _ } -> Some (tid, idx, taken)
          | _ -> None)
        (Sim.Trace.entries trace)
    in
    check "replay reproduces the exact taken path" true
      (recorded = [ (1, 0, true) ])

(* --- the campaign's model-checking configuration ----------------------- *)

let campaign_props =
  List.filter_map Mc.Props.by_name
    [ "deadlock"; "pi"; "invariants"; "tear"; "mem" ]

(* [Campaign.Eval]'s bounds: the simulation horizon, capped by the
   hyperperiod, 4000 expansions, 2000 decisions. *)
let campaign_bounds (sc : Workload.Scenario.t) (m : Mc.Machine.t) =
  let maxp =
    Array.fold_left
      (fun a (t : Model.Task.t) -> max a t.period)
      0
      (Model.Taskset.tasks sc.taskset)
  in
  {
    Mc.Explorer.horizon = min m.hyperperiod (min (2 * maxp) (ms 1000));
    max_states = 4000;
    max_depth = 2000;
  }

(* The first [count] seed-42 generated scenarios, each compiled the
   way the campaign compiles it. *)
let generated_machines ~count =
  List.mapi
    (fun i (spec : Workload.Generator.spec) ->
      let sporadic =
        List.filter_map
          (fun (t : Workload.Generator.task_spec) ->
            if t.g_sporadic then Some (t.g_id, t.g_period, t.g_period * 5 / 4)
            else None)
          spec.s_tasks
      in
      let sc = Workload.Generator.realize spec in
      let m = Mc.Machine.of_scenario ~sporadic sc in
      (Printf.sprintf "spec %d" i, m, campaign_bounds sc m))
    (Workload.Generator.scenario_specs ~seed:42 ~count ())

let machine_of_scenario (sc : Workload.Scenario.t) =
  let m = Mc.Machine.of_scenario sc in
  (sc.name, m, campaign_bounds sc m)

(* The presets and the first [count] seed-42 generated scenarios. *)
let campaign_machines ~count =
  List.map
    (fun name -> machine_of_scenario (Option.get (Workload.Scenario.make name)))
    [ "table2"; "engine"; "branchy" ]
  @ generated_machines ~count

(* The catalog's scenarios and the first 30 generated ones. *)
let mask_machines () =
  List.map
    (fun (e : Workload.Scenario.entry) -> machine_of_scenario (e.build ()))
    Workload.Scenario.catalog
  @ generated_machines ~count:30

(* [mask_machines], and the engine twice more: with a 3 ms copy span
   on its state-message reads, so tasks sit mid-read at decision
   states, and with tau2 sporadic, so a task's next release sits in an
   unresolved window. *)
let key_machines () =
  let engine = Option.get (Workload.Scenario.make "engine") in
  let period tid =
    (Option.get
       (Array.find_opt
          (fun (t : Model.Task.t) -> t.id = tid)
          (Model.Taskset.tasks engine.taskset)))
      .period
  in
  let variant name m = (name, m, campaign_bounds engine m) in
  mask_machines ()
  @ [
      variant "engine read-span"
        (Mc.Machine.of_scenario ~read_span:(ms 3) engine);
      variant "engine sporadic tau2"
        (Mc.Machine.of_scenario
           ~sporadic:[ (2, period 2, period 2 * 5 / 4) ]
           engine);
    ]

(* --- the direct key decides exactly what the marshalled key did ---- *)

(* The earlier canonical encoding, kept as the reference: a tuple tree
   of the canonical fields, marshalled. *)
let reference_key (m : Mc.Machine.t) (st : Mc.State.t) =
  let open Mc.State in
  let now = st.now in
  let rel_t t = if t = max_int then max_int else t - now in
  let canon_nr = function
    | At t -> (0, t - now, 0)
    | Never -> (1, 0, 0)
    | Choose (lo, hi) -> (2, max lo now - now, max hi now - now)
  in
  let canon_mode = function
    | Idle -> (0, 0, 0)
    | Ready -> (1, 0, 0)
    | Run -> (2, 0, 0)
    | BSem s -> (3, s, 0)
    | BWait w -> (4, w, 0)
    | BTimed (w, t) -> (5, w, t - now)
    | BDelay t -> (6, t - now, 0)
    | BSend b -> (7, b, 0)
    | BRecv b -> (8, b, 0)
  in
  let task i (t : tstate) =
    let read_delta =
      if t.read_sm < 0 then -1
      else min (st.sm_seq.(t.read_sm) - t.read_seq) m.sm_depth.(t.read_sm)
    in
    ( canon_mode t.mode,
      t.pc,
      t.rem,
      rel_t t.dl,
      rel_t t.effdl,
      t.eff,
      t.inh,
      t.held,
      canon_nr t.next_rel,
      List.map (fun r -> r - now) t.pending,
      rel_t t.dl_check,
      (t.read_sm, read_delta),
      t.live,
      i )
  in
  Marshal.to_string
    ( now mod m.hyperperiod,
      Array.to_list (Array.mapi task st.tasks),
      Array.to_list st.sem_holder,
      Array.to_list st.wq_sig,
      Array.to_list st.mb_occ,
      Array.to_list st.pool_occ,
      Array.to_list (Array.map canon_nr st.irq_next) )
    []

(* Every decision state a bounded depth-first search reaches, revisits
   included; only first visits (by reference key) are expanded.  [check]
   probes every state the search passes through; [expanding] is called
   before each expansion; [child] is told each decision state reached
   from another, with that parent. *)
let decision_states ?(check = fun ~changed:_ _ -> None) ?(expanding = ignore)
    ?(child = fun _ _ -> ()) m (bounds : Mc.Explorer.bounds) =
  let seen = Hashtbl.create 1024 in
  let out = ref [] and expansions = ref 0 in
  let stack = ref [ (Mc.State.init m, None) ] in
  while !stack <> [] && !expansions < bounds.max_states do
    match !stack with
    | [] -> ()
    | (st, choice) :: rest -> (
      stack := rest;
      incr expansions;
      expanding ();
      let e = Mc.Step.expand ~check ?choice ~horizon:bounds.horizon m st in
      match e.next with
      | `Leaf -> ()
      | `Branch cs ->
        if Option.is_some choice then child st e.state;
        out := e.state :: !out;
        let k = reference_key m e.state in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          List.iter (fun ch -> stack := (e.state, Some ch) :: !stack) cs
        end)
  done;
  !out

(* [st] with the clock and every absolute instant moved by [by] (one
   tick by default): canonically it differs from [st] only in the
   clock's residue, and not at all when [by] is a whole number of
   hyperperiods. *)
let shifted ?(by = 1) (st : Mc.State.t) =
  let open Mc.State in
  let at t = if t = max_int then t else t + by in
  let nr = function
    | At t -> At (t + by)
    | Never -> Never
    | Choose (lo, hi) -> Choose (lo + by, hi + by)
  in
  let shift (t : tstate) =
    {
      t with
      mode =
        (match t.mode with
        | BTimed (w, tmo) -> BTimed (w, tmo + by)
        | BDelay d -> BDelay (d + by)
        | m -> m);
      dl = at t.dl;
      effdl = at t.effdl;
      next_rel = nr t.next_rel;
      pending = List.map (fun r -> r + by) t.pending;
      dl_check = at t.dl_check;
    }
  in
  {
    st with
    now = st.now + by;
    tasks = Array.map shift st.tasks;
    irq_next = Array.map nr st.irq_next;
  }

(* A copy of [a] with slot [k] set to [v]. *)
let with_slot (a : int array) k v =
  let a = Array.copy a in
  a.(k) <- v;
  a

(* States one canonical field away from [st]: reached states seldom
   differ in a single field, so these make sure no field is lost. *)
let neighbours (st : Mc.State.t) =
  let open Mc.State in
  let now = st.now in
  let with_task i t =
    let tasks = Array.copy st.tasks in
    tasks.(i) <- t;
    { st with tasks }
  in
  List.concat
    (List.mapi
       (fun i (t : tstate) ->
         List.map (with_task i)
           ([
             { t with pc = t.pc + 1 };
             { t with rem = t.rem + 1 };
             { t with dl = t.dl + 1 };
             { t with effdl = t.effdl + 1 };
             { t with eff = t.eff + 1 };
             { t with inh = not t.inh };
             { t with held = 0 :: t.held };
             { t with held = t.held @ [ 0 ] };
             (* the same bytes but for [held]'s length prefix *)
             { t with held = [ 0 ]; next_rel = Never };
             { t with held = []; next_rel = At (now - 1) };
             { t with next_rel = Never };
             { t with next_rel = At now };
             { t with next_rel = Choose (now, now + 1) };
             { t with pending = now :: t.pending };
             { t with dl_check = (if t.dl_check = max_int then now else max_int) };
             { t with live = (0, 1) :: t.live };
             { t with mode = (if t.mode = Ready then Run else Ready) };
             { t with mode = BTimed (0, now + 1) };
            ]
            (* mid-read of each state message, all at write delta 0 *)
            @ List.init (Array.length st.sm_seq) (fun s ->
                  { t with read_sm = s; read_seq = st.sm_seq.(s) })
            (* blocked on each semaphore: on one it holds, a circular
               wait, with a lead-in when another task waits on it *)
            @ List.init (Array.length st.sem_holder) (fun s ->
                  { t with mode = BSem s })))
       (Array.to_list st.tasks))
  @ [ { st with now = now + 1 }; shifted st ]
  (* one object slot each: a semaphore's holder, a mailbox's
     occupancy, a wait queue's count and a pool's occupancy *)
  @ List.init (Array.length st.sem_holder) (fun s ->
        let h = if st.sem_holder.(s) < 0 then 0 else -1 in
        { st with sem_holder = with_slot st.sem_holder s h })
  @ List.init (Array.length st.mb_occ) (fun b ->
        { st with mb_occ = with_slot st.mb_occ b (st.mb_occ.(b) + 1) })
  @ List.init (Array.length st.wq_sig) (fun w ->
        { st with wq_sig = with_slot st.wq_sig w (st.wq_sig.(w) - 1) })
  @ List.init (Array.length st.pool_occ) (fun p ->
        { st with pool_occ = with_slot st.pool_occ p (st.pool_occ.(p) + 1) })

(* Equality of the first component and of the second agree over
   [pairs]: checked as a bijection between their equivalence classes.
   The number of classes. *)
let same_classes name what pairs =
  let fwd = Hashtbl.create 1024 and bwd = Hashtbl.create 1024 in
  List.iter
    (fun (k, x) ->
      (match Hashtbl.find_opt fwd k with
      | Some x' when x' <> x ->
        Alcotest.failf "%s: equal keys for different %s" name what
      | Some _ -> ()
      | None -> Hashtbl.add fwd k x);
      match Hashtbl.find_opt bwd x with
      | Some k' when k' <> k ->
        Alcotest.failf "%s: different keys for equal %s" name what
      | Some _ -> ()
      | None -> Hashtbl.add bwd x k)
    pairs;
  Hashtbl.length fwd

(* A state's index vector built from scratch, in the set [v]. *)
let fresh_vector v st =
  (Mc.Visited.vector v ~parent:st ~pvec:Mc.Visited.root st :> int array)

(* The decision states of [key_machines]' searches under the
   campaign's properties, with every parent/child pair among them;
   the two tests below share them. *)
let key_searches =
  lazy
    (List.map
       (fun (name, m, bounds) ->
         let pairs = ref [] in
         let states =
           decision_states ~check:(Mc.Props.check_changed campaign_props m)
             ~child:(fun p c -> pairs := (p, c) :: !pairs)
             m bounds
         in
         (name, m, states, !pairs))
       (key_machines ()))

(* The key decides exactly what the marshalled reference does, and so
   does the visited set's index vector: on every decision state, the
   neighbours of every 97th, and every 7th moved by one and by two
   hyperperiods. *)
let key_matches_reference () =
  let pairs = ref 0 and distinct = ref 0 in
  List.iter
    (fun (name, (m : Mc.Machine.t), states, _) ->
      let states =
        states
        @ List.concat_map neighbours
            (List.filteri (fun i _ -> i mod 97 = 0) states)
        @ List.concat_map
            (fun st ->
              [
                shifted ~by:m.hyperperiod st;
                shifted ~by:(2 * m.hyperperiod) st;
              ])
            (List.filteri (fun i _ -> i mod 7 = 0) states)
      in
      let keyed = List.map (fun st -> (Mc.State.key m st, st)) states in
      let classes =
        same_classes name "canonical states"
          (List.map (fun (k, st) -> (k, reference_key m st)) keyed)
      in
      let v = Mc.Visited.create m in
      ignore
        (same_classes name "index vectors"
           (List.map (fun (k, st) -> (k, fresh_vector v st)) keyed));
      pairs := !pairs + List.length states;
      distinct := !distinct + classes)
    (Lazy.force key_searches);
  check "the states include revisits, so equal keys were compared" true
    (!pairs > !distinct && !distinct > 1000)

(* States whose task records are all [st]'s own, with the clock moved
   by a tick, to the last instant of its hyperperiod and to the next
   hyperperiod's base, or with one state message written once more. *)
let clock_neighbours (m : Mc.Machine.t) (st : Mc.State.t) =
  let base = st.now - Mc.State.residue m st in
  [
    { st with now = st.now + 1 };
    { st with now = base + m.hyperperiod - 1 };
    { st with now = base + m.hyperperiod };
  ]
  @ List.init (Array.length st.sm_seq) (fun s ->
        { st with sm_seq = with_slot st.sm_seq s (st.sm_seq.(s) + 1) })

(* A child's vector built from its parent's, reusing the parent's
   indices where [Visited] allows, equals the child's vector built
   from scratch: on every parent/child pair of the searches, and with
   each decision state as the parent of its clock neighbours and of
   the neighbours of every 97th.  The searches reach tasks mid-read
   and in unresolved windows, where reuse must not happen. *)
let vector_reuse_exact () =
  let mid_read = ref 0 and windows = ref 0 and reused = ref 0 in
  List.iter
    (fun (name, m, states, pairs) ->
      let v = Mc.Visited.create m in
      let check_pair (parent : Mc.State.t) pvec (child : Mc.State.t) =
        let built = (Mc.Visited.vector v ~parent ~pvec child :> int array) in
        if built <> fresh_vector v child then
          Alcotest.failf "%s: a child at %dns of a parent at %dns" name
            child.now parent.now
      in
      let vector st = Mc.Visited.vector v ~parent:st ~pvec:Mc.Visited.root st in
      List.iter
        (fun ((p : Mc.State.t), (c : Mc.State.t)) ->
          if Array.exists2 ( == ) p.tasks c.tasks then incr reused;
          check_pair p (vector p) c)
        pairs;
      List.iteri
        (fun i (st : Mc.State.t) ->
          if Array.exists (fun (t : Mc.State.tstate) -> t.read_sm >= 0) st.tasks
          then incr mid_read;
          if
            Array.exists
              (fun (t : Mc.State.tstate) ->
                match t.next_rel with Choose _ -> true | At _ | Never -> false)
              st.tasks
          then incr windows;
          let pvec = vector st in
          List.iter (check_pair st pvec) (clock_neighbours m st);
          if i mod 97 = 0 then List.iter (check_pair st pvec) (neighbours st))
        states)
    (Lazy.force key_searches);
  check "some decision state has a task mid-read" true (!mid_read > 0);
  check "some decision state has a task in an unresolved window" true
    (!windows > 0);
  check "children share task records with their parents" true
    (!reused > 10_000)

(* --- state probes match the reference --------------------------------- *)

let verdict = Alcotest.(option (pair string string))

(* gen-0 of seed 42, hand-built: tau3 waits on a semaphore tau4 holds,
   and tau4 and tau1 wait on each other.  The walk starts at tau3, the
   lowest rank, which is not on the cycle. *)
let deadlock_names_the_cycle () =
  let _, m, _ = List.hd (generated_machines ~count:1) in
  let idx name =
    (Option.get
       (Array.find_opt
          (fun (t : Mc.Machine.mtask) -> t.task_name = name)
          m.tasks))
      .idx
  in
  let tau1 = idx "tau1" and tau3 = idx "tau3" and tau4 = idx "tau4" in
  let clean = Mc.State.init m in
  let st =
    {
      clean with
      tasks = Array.copy clean.tasks;
      sem_holder = Array.copy clean.sem_holder;
    }
  in
  st.sem_holder.(0) <- tau4;
  st.sem_holder.(1) <- tau1;
  let block i s =
    st.tasks.(i) <- { (st.tasks.(i)) with mode = Mc.State.BSem s }
  in
  block tau3 0;
  block tau4 1;
  block tau1 0;
  let probe = Mc.Props.check_state [ Mc.Props.deadlock; Mc.Props.pi ] m in
  let cycle = Some ("deadlock", "circular wait: tau1 -> tau4") in
  Alcotest.check verdict "only the tasks on the cycle are named" cycle (probe st);
  (* one probe answers each state afresh: no cycle carries over *)
  Alcotest.check verdict "a clean state after it" None (probe clean);
  Alcotest.check verdict "the cycle again" cycle (probe st)

(* Every property alone, then all six. *)
let prop_sets = List.map (fun p -> [ p ]) Mc.Props.all @ [ Mc.Props.all ]

(* A comparer of [Props.check_state] against [Props_ref] on every
   property set.  Each set's probe is built once and reused on every
   state compared, as a search reuses it, so a stale cached answer
   shows as a mismatch; the reference starts afresh on each state. *)
let probe_comparer name m =
  let checks =
    List.map
      (fun ps ->
        ( List.map (fun (p : Mc.Props.t) -> p.name) ps,
          Mc.Props.check_state ps m ))
      prop_sets
  in
  let show = function None -> "ok" | Some (p, msg) -> p ^ ": " ^ msg in
  fun st ->
    (* the reference keeps nothing between states: when all six pass,
       each passes alone *)
    let clean = Props_ref.check_state Mc.Props.names m st = None in
    List.iter
      (fun (names, probe) ->
        let got = probe st in
        let want = if clean then None else Props_ref.check_state names m st in
        if got <> want then
          Alcotest.failf "%s [%s]: %s, reference %s" name
            (String.concat "," names) (show got) (show want))
      checks

(* Neighbours may hold a semaphore the machine lacks. *)
let well_formed (st : Mc.State.t) =
  Array.for_all
    (fun (t : Mc.State.tstate) ->
      List.for_all (fun s -> s < Array.length st.sem_holder) t.held)
    st.tasks

(* The decision states of the catalog's scenarios and of 30 generated
   seed-42 machines, and the neighbours of every twentieth.  The
   catalog's searches compare every probed state too, which takes in
   the demos' violating states where their searches would stop. *)
let props_match_reference () =
  let violated = Hashtbl.create 8 in
  let run ~every_probe (name, m, bounds) =
    let compare = probe_comparer name m in
    let check ~changed:_ st =
      if every_probe then compare st;
      None
    in
    let all = Mc.Props.check_state Mc.Props.all m in
    List.iteri
      (fun i st ->
        compare st;
        if i mod 20 = 0 then
          List.iter
            (fun st ->
              compare st;
              Option.iter (fun (p, _) -> Hashtbl.replace violated p ()) (all st))
            (List.filter well_formed (neighbours st)))
      (decision_states ~check m bounds)
  in
  List.iter
    (fun (e : Workload.Scenario.entry) ->
      run ~every_probe:true (machine_of_scenario (e.build ())))
    Workload.Scenario.catalog;
  List.iter (run ~every_probe:false) (generated_machines ~count:30);
  List.iter
    (fun p ->
      check (p ^ " fails on some neighbour") true (Hashtbl.mem violated p))
    [ "deadlock"; "pi"; "invariants"; "mem" ]

(* --- the change mask ----------------------------------------------- *)

(* The parts in which two states of one machine differ, field by field
   with structural equality: the test's own account of
   [Mc.State.parts]. *)
let parts_differing (a : Mc.State.t) (b : Mc.State.t) =
  let open Mc.State in
  let part p differs = if differs then p else 0 in
  let task (x : tstate) (y : tstate) =
    (match (x.mode, y.mode) with
    | (Ready | Run), (Ready | Run) -> part switch (x.mode <> y.mode)
    | _ -> part modes (x.mode <> y.mode))
    lor part modes
          (x.eff <> y.eff || x.effdl <> y.effdl || x.dl <> y.dl
          || x.inh <> y.inh || x.held <> y.held)
    lor part progress (x.pc <> y.pc || x.rem <> y.rem)
    lor part live (x.live <> y.live)
  in
  let tasks = ref 0 in
  Array.iteri
    (fun i x -> if x != b.tasks.(i) then tasks := !tasks lor task x b.tasks.(i))
    a.tasks;
  !tasks
  lor part sems (a.sem_holder <> b.sem_holder)
  lor part mailboxes (a.mb_occ <> b.mb_occ)
  lor part waitqs (a.wq_sig <> b.wq_sig)
  lor part pools (a.pool_occ <> b.pool_occ)

(* A probed state outlives its probe: the crank goes on writing the
   arrays it shares. *)
let snapshot (st : Mc.State.t) =
  {
    st with
    tasks = Array.copy st.tasks;
    sem_holder = Array.copy st.sem_holder;
    wq_sig = Array.copy st.wq_sig;
    mb_occ = Array.copy st.mb_occ;
    pool_occ = Array.copy st.pool_occ;
  }

(* Every probe of an expansion after its first is told at least the
   parts in which its state differs from the one the previous probe
   passed; the first is told every part. *)
let mask_covers_changes () =
  let partial = ref 0 in
  List.iter
    (fun (name, m, bounds) ->
      let prev = ref None in
      let check ~changed st =
        let st = snapshot st in
        (match !prev with
        | None ->
          if changed <> Mc.State.all then
            Alcotest.failf "%s: the first probe of an expansion was told %#x"
              name changed
        | Some p ->
          let missed = parts_differing p st land lnot changed in
          if missed <> 0 then
            Alcotest.failf "%s at %dns: parts %#x changed, unmarked" name
              st.now missed;
          if changed <> Mc.State.all then incr partial);
        prev := Some st;
        None
      in
      ignore
        (decision_states ~check ~expanding:(fun () -> prev := None) m bounds))
    (mask_machines ());
  check "most probes are told fewer than all parts" true (!partial > 10_000)

(* On a clean decision state's neighbours, the probe told only the
   parts that differ answers as the full check does, for every
   property alone and all six.  Each distinct state is taken once. *)
let partial_probe_exact () =
  let in_part = ref 0 in
  List.iter
    (fun (name, m, bounds) ->
      let seen = Hashtbl.create 1024 in
      let probes =
        List.map
          (fun ps ->
            ( List.map (fun (p : Mc.Props.t) -> p.name) ps,
              Mc.Props.check_changed ps m,
              Mc.Props.check_state ps m ))
          prop_sets
      in
      let all = Mc.Props.check_state Mc.Props.all m in
      List.iter
        (fun st ->
          let k = Mc.State.key m st in
          if all st = None && not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            List.iter
              (fun n ->
                let changed = parts_differing st n in
                if changed <> Mc.State.all then incr in_part;
                List.iter
                  (fun (names, partial, full) ->
                    let got = partial ~changed n and want = full n in
                    if got <> want then
                      Alcotest.failf "%s [%s] told %#x: %s, full check %s" name
                        (String.concat "," names) changed
                        (Option.fold ~none:"ok" ~some:snd got)
                        (Option.fold ~none:"ok" ~some:snd want))
                  probes)
              (List.filter well_formed (neighbours st))
          end)
        (decision_states m bounds))
    (mask_machines ());
  check "neighbours were probed in part" true (!in_part > 10_000)

(* --- pruning is pinned ----------------------------------------------- *)

(* [Explorer.check] with the campaign's properties and bounds, recorded
   before the direct key replaced the marshalled one: (name, expansions,
   distinct, revisits, truncated, jobs, max_response). *)
let golden =
  [
    ("table2", 1, 0, 0, false, 175,
     [ 1000000; 2000000; 3000000; 4000000; 9400000; 11800000; 19200000;
       23200000; 27600000; 34000000 ]);
    ("engine", 1923, 961, 942, false, 12707,
     [ 800000; 1300000; 3400000; 6700000; 8300000; 12900000; 16400000;
       22500000; 57500000; 69900000; 99900000; 173300000 ]);
    ("branchy", 21, 10, 11, false, 34, [ 2500000; 6200000; 9200000 ]);
    ("spec 0", 1, 0, 0, false, 30,
     [ 1010199; 1409759; 1475604; 5010199; 8581846; 13899326; 9396104;
       15952429 ]);
    ("spec 1", 931, 465, 412, false, 2188,
     [ 113682; 204347; 569671; 618967; 1478775; 1626518; 3003664; 10522922 ]);
    ("spec 2", 109, 54, 35, false, 61,
     [ 3005672; 5272118; 13075876; 31342524; 32171168 ]);
    ("spec 3", 4000, 2009, 1780, true, 4468,
     [ 159410; 786380; 1052481; 7904292; 8482202; 0; 9080045; 22185085 ]);
    ("spec 4", 4, 1, 0, false, 561,
     [ 2034474; 0; 427589; 5283301; 10321876; 22034474 ]);
    ("spec 5", 315, 157, 123, false, 192,
     [ 895382; 11897373; 14773134; 17784714; 22383527; 35484280 ]);
    ("spec 6", 553, 276, 256, false, 1004,
     [ 35924; 65924; 724250; 2209349; 3363375; 7246001 ]);
    ("spec 7", 364, 181, 138, false, 198, [ 601463; 0; 5465002 ]);
    ("spec 8", 107, 53, 34, false, 175,
     [ 2186289; 2216289; 2393495; 2956052; 15874048; 17270619; 34989835;
       67091727 ]);
    ("spec 9", 109, 54, 46, false, 71, [ 11011310; 9492478; 14986731 ]);
    ("spec 10", 3634, 1816, 1641, false, 2244,
     [ 16871983; 17734676; 20563155; 0; 70563155; 71607203; 72144046;
       79515938 ]);
    ("spec 11", 715, 357, 313, false, 4248,
     [ 1990070; 11227902; 12598711; 19714376; 64494075 ]);
    ("spec 12", 4000, 2008, 1782, true, 831, [ 3129350; 3891842; 0 ]);
    ("spec 13", 3214, 1606, 1461, false, 300, [ 96642649; 21642649; 0 ]);
    ("spec 14", 4000, 2013, 1630, true, 2888,
     [ 241914; 1506138; 1992120; 2695422; 6790507; 12376009; 16382165 ]);
    ("spec 15", 1060, 529, 420, false, 1326,
     [ 432301; 1629659; 15037217; 2178686; 0; 30898450; 40028457 ]);
    ("spec 16", 1060, 529, 420, false, 0, [ 0; 0; 0 ]);
    ("spec 17", 27, 13, 12, false, 147,
     [ 345103152; 561341; 6159434; 12127037; 32200073 ]);
    ("spec 18", 209, 104, 76, false, 665,
     [ 2937241; 3219699; 5749076; 5875432; 5436592; 10741821; 15070540;
       22970337 ]);
    ("spec 19", 4, 1, 0, false, 51,
     [ 1071959; 3133522; 5618800; 6151596; 0; 10678045 ]);
    ("spec 20", 93, 46, 28, false, 245,
     [ 893156; 1847120; 3549053; 13022170 ]);
    ("spec 21", 274, 136, 81, false, 438,
     [ 100113; 3361398; 0; 5857546; 6447238; 24613576 ]);
    ("spec 22", 4000, 2040, 1902, true, 3320,
     [ 633662; 600633662; 1610758; 3568689; 28516485; 48339614; 54967846 ]);
    ("spec 23", 1611, 805, 762, false, 3218,
     [ 649846; 1810844; 1170972; 1600972; 4489044; 19686414; 22066745 ]);
    ("spec 24", 328, 163, 105, false, 663,
     [ 957180; 1155138; 3716213; 4381223; 12806291; 30556537; 44892417; 0 ]);
  ]

let exploration_golden () =
  let machines = campaign_machines ~count:25 in
  check_int "one golden row per machine" (List.length golden)
    (List.length machines);
  List.iter2
    (fun (name, m, bounds) (gname, exp, dist, rev, trunc, jobs, resp) ->
      Alcotest.(check string) "golden row order" gname name;
      let r = Mc.Explorer.check ~props:campaign_props ~bounds m in
      check (name ^ " clean") true (r.verdict = `Ok);
      check_int (name ^ " expansions") exp r.expansions;
      check_int (name ^ " distinct") dist r.distinct;
      check_int (name ^ " revisits") rev r.revisits;
      check (name ^ " truncated") trunc r.truncated;
      check_int (name ^ " jobs") jobs r.jobs;
      Alcotest.(check (list int))
        (name ^ " max_response") resp
        (Array.to_list r.max_response))
    machines golden

(* EDF dispatch keys, [Tie] choices and POR pruning, under the bounds and
   properties of [por_sound_on_ties]: (name, por, expansions, distinct,
   revisits, por_skipped, jobs, max_response). *)
let edf_golden =
  [
    ("table2", true, 5, 4, 0, 4, 50,
     [ 1000000; 2000000; 3000000; 4000000; 5400000; 11800000; 19200000;
       23200000; 27600000; 34000000 ]);
    ("table2", false, 9, 4, 3, 0, 96,
     [ 1400000; 2000000; 3000000; 4000000; 5400000; 11800000; 19200000;
       23200000; 27600000; 34000000 ]);
    ("avionics", true, 152, 80, 62, 9, 291,
     [ 600000; 2900000; 2900000; 6200000; 6200000; 12400000; 12900000;
       28500000; 28500000; 39400000; 0; 0; 0; 0 ]);
    ("avionics", false, 395, 197, 128, 0, 659,
     [ 600000; 2900000; 2900000; 6200000; 6200000; 12400000; 12900000;
       28500000; 28500000; 39400000; 39400000; 0; 0; 0 ]);
  ]

let edf_exploration_golden () =
  let bounds =
    { Mc.Explorer.horizon = ms 50; max_states = 50_000; max_depth = 5_000 }
  in
  let props = [ Mc.Props.deadlock; Mc.Props.invariants ] in
  List.iter
    (fun (name, por, exp, dist, rev, skipped, jobs, resp) ->
      let s = Option.get (Workload.Scenario.make name) in
      let m = Mc.Machine.of_scenario ~sched:Mc.Machine.Edf s in
      let r = Mc.Explorer.check ~por ~props ~bounds m in
      let name = Printf.sprintf "%s edf por=%b" name por in
      check (name ^ " clean and complete") true
        (r.verdict = `Ok && not r.truncated);
      check_int (name ^ " expansions") exp r.expansions;
      check_int (name ^ " distinct") dist r.distinct;
      check_int (name ^ " revisits") rev r.revisits;
      check_int (name ^ " por_skipped") skipped r.por_skipped;
      check_int (name ^ " jobs") jobs r.jobs;
      Alcotest.(check (list int))
        (name ^ " max_response") resp
        (Array.to_list r.max_response))
    edf_golden

(* --- block reasons: the checker names a block as the kernel does --- *)

(* tau1 receives from an empty one-slot box, tau2 waits on Q, and
   tau3's third send finds the box full before it signals Q: each
   blocks once, for its own reason.  The single schedule (distinct RM
   ranks, no windows) runs in the zero-cost kernel and in the checker
   with the replay hook, and both name the blocks alike. *)
let block_reasons () =
  let mb = Emeralds.Objects.mailbox ~capacity:1 ()
  and q = Emeralds.Objects.waitq () in
  let task id period wcet =
    Model.Task.make ~id ~period:(ms period) ~wcet:(ms wcet) ()
  in
  let s =
    hand_built "block-reasons"
      [ task 1 10 1; task 2 20 1; task 3 40 2 ]
      (fun (t : Model.Task.t) ->
        let open Emeralds.Program in
        let msg = send mb (words 1) in
        match t.id with
        | 1 -> [ recv mb; compute (ms 1) ]
        | 2 -> [ wait q; compute (ms 1) ]
        | _ -> [ compute (ms 1); msg; msg; msg; signal q; compute (ms 1) ])
  in
  let blocks entries =
    String.concat "; "
      (List.filter_map
         (function
           | Sim.Trace.Thread_block { reason = "dormant"; _ } -> None
           | Thread_block { tid; reason } ->
             Some (Printf.sprintf "%d %s" tid reason)
           | _ -> None)
         entries)
  in
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Rm
      ~taskset:s.taskset ~programs:s.programs ()
  in
  Emeralds.Kernel.run k ~until:(ms 20);
  let m = Mc.Machine.of_scenario s in
  let emitted = ref [] in
  let e =
    Mc.Step.expand
      ~emit:(fun _ entry -> emitted := entry :: !emitted)
      ~horizon:(ms 20) m (Mc.State.init m)
  in
  check "one deterministic segment" true (e.next = `Leaf);
  let kernel =
    blocks
      (List.map
         (fun (st : Sim.Trace.stamped) -> st.entry)
         (Sim.Trace.entries (Emeralds.Kernel.trace k)))
  in
  Alcotest.(check string) "blocks, kernel" "1 mbox-empty; 2 wait; 3 mbox-full"
    kernel;
  Alcotest.(check string) "blocks, checker" kernel (blocks (List.rev !emitted))

let suite =
  [
    Alcotest.test_case "seeded deadlock: lint and MC agree" `Quick
      seeded_deadlock_witnessed;
    Alcotest.test_case "presets: lint-clean and MC-clean" `Quick presets_agree;
    Alcotest.test_case "POR keeps verdicts, prunes ties" `Quick
      por_sound_on_ties;
    Alcotest.test_case "RTA bounds dominate MC responses" `Quick
      rta_dominates_mc;
    Alcotest.test_case "state-message tear bound" `Quick tear_bound;
    Alcotest.test_case "sporadic windows explored" `Quick sporadic_explored;
    Alcotest.test_case "kernel = checker on deterministic runs" `Quick
      kernel_differential;
    Alcotest.test_case "branch fork and counterexample replay" `Quick
      branch_fork_and_replay;
    Alcotest.test_case "state keys match the marshalled reference" `Quick
      key_matches_reference;
    Alcotest.test_case "deadlock message names the cycle only" `Quick
      deadlock_names_the_cycle;
    Alcotest.test_case "state probes match the reference" `Quick
      props_match_reference;
    Alcotest.test_case "exploration counts match the golden record" `Quick
      exploration_golden;
    Alcotest.test_case "EDF and POR exploration counts match the golden record"
      `Quick edf_exploration_golden;
    Alcotest.test_case "change mask covers every write" `Quick
      mask_covers_changes;
    Alcotest.test_case "probe told the changes is exact" `Quick
      partial_probe_exact;
    Alcotest.test_case "index vectors built from the parent's are exact"
      `Quick vector_reuse_exact;
    Alcotest.test_case "block reasons: checker = kernel" `Quick block_reasons;
  ]
