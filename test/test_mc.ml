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

let kernel_differential () =
  let s = Option.get (Workload.Scenario.make "table2") in
  let horizon = ms 100 in
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Rm
      ~taskset:s.taskset ~programs:s.programs ()
  in
  Emeralds.Kernel.run k ~until:horizon;
  let m = Mc.Machine.of_scenario s in
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
          (Printf.sprintf "task %d worst response: kernel = checker" st.tid)
          st.max_response
          r.max_response.(mt.idx))
    (Emeralds.Kernel.stats k)

let snapshot_determinism () =
  let mk () =
    let s = Option.get (Workload.Scenario.make "engine") in
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Rm
      ~taskset:s.taskset ~programs:s.programs ()
  in
  let k1 = mk () and k2 = mk () in
  for _ = 1 to 400 do
    ignore (Emeralds.Kernel.step k1);
    ignore (Emeralds.Kernel.step k2)
  done;
  let s1 = Emeralds.Kernel.Snapshot.capture k1 in
  let s2 = Emeralds.Kernel.Snapshot.capture k2 in
  check "identical kernels stepped in lockstep snapshot equal" true
    (Emeralds.Kernel.Snapshot.equal s1 s2);
  check "equal snapshots hash equal" true
    (Emeralds.Kernel.Snapshot.hash s1 = Emeralds.Kernel.Snapshot.hash s2);
  match Emeralds.Kernel.Snapshot.thread s1 ~tid:1 with
  | None -> Alcotest.fail "snapshot lost task 1"
  | Some (mode, _, _, _, _) ->
    check "task 1 mode is a known word" true
      (List.mem mode [ "ready"; "running"; "dormant" ]
      || String.length mode >= 8 && String.sub mode 0 8 = "blocked:")

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

(* The presets and the first [count] seed-42 generated scenarios, each
   compiled the way the campaign compiles it. *)
let campaign_machines ~count =
  let presets =
    List.map
      (fun name ->
        let sc = Option.get (Workload.Scenario.make name) in
        let m = Mc.Machine.of_scenario sc in
        (name, m, campaign_bounds sc m))
      [ "table2"; "engine"; "branchy" ]
  in
  let generated =
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
  in
  presets @ generated

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
      Array.to_list st.sem_val,
      Array.to_list st.sem_holder,
      Array.to_list st.wq_sig,
      Array.to_list st.mb_occ,
      Array.to_list st.pool_occ,
      Array.to_list (Array.map canon_nr st.irq_next) )
    []

(* Every decision state a bounded depth-first search reaches, revisits
   included; only first visits (by reference key) are expanded. *)
let decision_states m (bounds : Mc.Explorer.bounds) =
  let check = Mc.Props.check_state campaign_props m in
  let seen = Hashtbl.create 1024 in
  let out = ref [] and expansions = ref 0 in
  let stack = ref [ Mc.State.init m ] in
  while !stack <> [] && !expansions < bounds.max_states do
    match !stack with
    | [] -> ()
    | st :: rest -> (
      stack := rest;
      incr expansions;
      let e = Mc.Step.expand ~check ~horizon:bounds.horizon m st in
      match e.next with
      | `Leaf -> ()
      | `Branch cs ->
        out := e.state :: !out;
        let k = reference_key m e.state in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          List.iter (fun ch -> stack := Mc.Step.apply m e.state ch :: !stack) cs
        end)
  done;
  !out

(* [st] with the clock and every absolute instant moved by one tick:
   canonically it differs from [st] only in the clock's residue. *)
let shifted (st : Mc.State.t) =
  let open Mc.State in
  let at t = if t = max_int then t else t + 1 in
  let nr = function
    | At t -> At (t + 1)
    | Never -> Never
    | Choose (lo, hi) -> Choose (lo + 1, hi + 1)
  in
  let shift (t : tstate) =
    {
      t with
      mode =
        (match t.mode with
        | BTimed (w, tmo) -> BTimed (w, tmo + 1)
        | BDelay d -> BDelay (d + 1)
        | m -> m);
      dl = at t.dl;
      effdl = at t.effdl;
      next_rel = nr t.next_rel;
      pending = List.map succ t.pending;
      dl_check = at t.dl_check;
    }
  in
  {
    st with
    now = st.now + 1;
    tasks = Array.map shift st.tasks;
    irq_next = Array.map nr st.irq_next;
  }

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
                  { t with read_sm = s; read_seq = st.sm_seq.(s) })))
       (Array.to_list st.tasks))
  @ [ { st with now = now + 1 }; shifted st ]

let key_matches_reference () =
  let pairs = ref 0 and distinct = ref 0 in
  List.iter
    (fun (name, m, bounds) ->
      (* new a = new b <=> ref a = ref b over all pairs, checked as a
         bijection between the two keys' equivalence classes *)
      let to_ref = Hashtbl.create 1024 and to_new = Hashtbl.create 1024 in
      let states = decision_states m bounds in
      let states =
        states
        @ List.concat_map neighbours
            (List.filteri (fun i _ -> i mod 97 = 0) states)
      in
      List.iter
        (fun st ->
          let k = Mc.State.key m st and r = reference_key m st in
          (match Hashtbl.find_opt to_ref k with
          | Some r' when r' <> r ->
            Alcotest.failf "%s: equal keys for different canonical states" name
          | Some _ -> ()
          | None -> Hashtbl.add to_ref k r);
          match Hashtbl.find_opt to_new r with
          | Some k' when k' <> k ->
            Alcotest.failf "%s: different keys for one canonical state" name
          | Some _ -> ()
          | None -> Hashtbl.add to_new r k)
        states;
      pairs := !pairs + List.length states;
      distinct := !distinct + Hashtbl.length to_ref)
    (campaign_machines ~count:30);
  check "the states include revisits, so equal keys were compared" true
    (!pairs > !distinct && !distinct > 1000)

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
    Alcotest.test_case "kernel snapshots are deterministic" `Quick
      snapshot_determinism;
    Alcotest.test_case "branch fork and counterexample replay" `Quick
      branch_fork_and_replay;
    Alcotest.test_case "state keys match the marshalled reference" `Quick
      key_matches_reference;
    Alcotest.test_case "exploration counts match the golden record" `Quick
      exploration_golden;
  ]
