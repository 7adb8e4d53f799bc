(* Regression tests for kernel and analysis bugs falsified by the
   differential soundness campaign (lib/campaign) and the enforcement
   fuzzer.  Each test pins the minimal mechanism; the campaign suite
   replays the original generated scenarios end-to-end. *)

open Alcotest
open Emeralds

let ms = Model.Time.ms
let us = Model.Time.us

let taskset_of rows =
  Model.Taskset.of_list
    (List.map
       (fun (id, period, wcet) -> Model.Task.make ~id ~period ~wcet ())
       rows)

(* A budget crossing already banked when a burst resumes must be
   detected at once.  Found on a periodic-tick kernel, whose probe
   re-quantized forward on every re-arm, so a job that blocked just
   before each tick boundary overran without bound (campaign fuzz case
   n=2 std Edf tick=700us seed=122: 1968us consumed against a 1200us
   budget, zero overruns).  Timers are event-precise now; the crossing
   is banked when another kernel entry falls at the very instant the
   probe is due, and the job must still stop 1 ns past its budget. *)
let test_budget_probe_overdue () =
  let wq = Objects.waitq () in
  let taskset = taskset_of [ (1, ms 50, ms 3) ] in
  let program _ =
    [ Program.compute (us 600); Program.wait wq; Program.compute (us 500) ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset
      ~programs:program ()
  in
  let budget = us 1000 in
  Kernel.set_enforcement k
    (Some
       {
         Kernel.budget_of = (fun _ -> Some budget);
         policy = Kernel.Kill_job;
         miss = Kernel.Miss_record;
         shed_one_in = None;
       });
  Kernel.at k ~at:(us 5_000) (fun () -> Kernel.signal_waitq k wq);
  (* the resumed burst's probe is due 400us + 1ns later; this entry,
     queued first, fires before it and banks the crossing *)
  Kernel.at k ~at:(us 5_400 + 1) ignore;
  Kernel.run k ~until:(ms 15);
  let st = List.hd (Kernel.enforcement_stats k) in
  check bool "overrun detected" true (st.e_overruns >= 1);
  check bool "kill happened" true (st.e_kills >= 1);
  check bool "budget bound holds" true (st.e_budget_used <= budget + 1)

(* Sporadic triggers used to steal the next periodic job number; the
   later periodic release then re-used it, and [begin_job] started a
   job with [job_no = completed_job] — which silently disabled its
   budget probe and deadline check (both guard on
   [completed_job < job]).  Job numbers must be strictly increasing
   per task across mixed periodic and sporadic arrivals. *)
let test_job_numbers_unique () =
  let taskset = taskset_of [ (1, ms 20, ms 2) ] in
  let program _ = [ Program.compute (us 1500) ] in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset
      ~programs:program ()
  in
  let budget = us 1000 in
  Kernel.set_enforcement k
    (Some
       {
         Kernel.budget_of = (fun _ -> Some budget);
         policy = Kernel.Kill_job;
         miss = Kernel.Miss_kill;
         shed_one_in = None;
       });
  (* a sporadic arrival between the first two periodic releases *)
  Kernel.trigger_job_at k ~at:(ms 10) ~tid:1;
  Kernel.run k ~until:(ms 70);
  let releases =
    List.filter_map
      (fun (st : Sim.Trace.stamped) ->
        match st.entry with
        | Sim.Trace.Job_release { tid = 1; job; _ } -> Some job
        | _ -> None)
      (Sim.Trace.entries (Kernel.trace k))
  in
  check bool "several jobs released" true (List.length releases >= 4);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check bool "job numbers strictly increasing" true (increasing releases);
  (* every admitted job overruns its 1000us budget by construction;
     with unique numbering none escapes detection *)
  let st = List.hd (Kernel.enforcement_stats k) in
  check int "every job detected" (List.length releases) st.e_overruns

(* Back-to-back critical sections with no CPU-yielding instruction
   between them execute as one kernel episode: the releasing task is
   re-granted by direct hand-off ahead of higher-priority tasks that
   have not issued their own acquire.  [blocking_sections] must emit
   the merged chain (summed duration) alongside the individual
   members.  A genuine yield ([Compute]/[Delay]) breaks the chain; a
   [Wait] does not, because it may complete instantly off a pending
   signal. *)
let test_chain_blocking_sections () =
  let s1 = Objects.sem ~kind:Types.Emeralds () in
  let s2 = Objects.sem ~kind:Types.Emeralds () in
  let wq = Objects.waitq () in
  let taskset = taskset_of [ (1, ms 10, ms 1); (2, ms 50, ms 2) ] in
  let chained (t : Model.Task.t) =
    if t.id = 1 then [ Program.compute (us 100) ]
    else
      [
        Program.acquire s1;
        Program.compute (us 100);
        Program.release s1;
        Program.wait wq (* may complete instantly: chain continues *);
        Program.acquire s2;
        Program.compute (us 200);
        Program.release s2;
      ]
  in
  let ctx = Lint.Ctx.make ~taskset ~programs:chained () in
  let merged =
    List.filter
      (fun (cs : Analysis.Blocking.critical_section) -> cs.chained <> [])
      (Lint.Blocking_terms.blocking_sections ctx)
  in
  (match merged with
  | [ cs ] ->
    check int "merged duration sums the chain" (us 300) cs.duration;
    check int "merged section is the low task's" 1 cs.task_rank
  | l -> failf "expected one merged section, got %d" (List.length l));
  let broken (t : Model.Task.t) =
    if t.id = 1 then [ Program.compute (us 100) ]
    else
      [
        Program.acquire s1;
        Program.compute (us 100);
        Program.release s1;
        Program.compute (us 50) (* yields: chain broken *);
        Program.acquire s2;
        Program.compute (us 200);
        Program.release s2;
      ]
  in
  let ctx = Lint.Ctx.make ~taskset ~programs:broken () in
  check int "yield breaks the chain" 0
    (List.length
       (List.filter
          (fun (cs : Analysis.Blocking.critical_section) -> cs.chained <> [])
          (Lint.Blocking_terms.blocking_sections ctx)))

(* The merged chain must be emitted in addition to its members — the
   members carry their own semaphores for ceiling and nested-wait
   lookups, and dropping them shrank other ranks' blocking terms. *)
let test_chain_keeps_members () =
  let s1 = Objects.sem ~kind:Types.Emeralds () in
  let taskset = taskset_of [ (1, ms 10, ms 1); (2, ms 50, ms 2) ] in
  let programs (t : Model.Task.t) =
    if t.id = 1 then [ Program.acquire s1; Program.release s1 ]
    else
      [
        Program.acquire s1;
        Program.compute (us 100);
        Program.release s1;
        Program.acquire s1;
        Program.compute (us 200);
        Program.release s1;
      ]
  in
  let ctx = Lint.Ctx.make ~taskset ~programs ()  in
  let low =
    List.filter
      (fun (cs : Analysis.Blocking.critical_section) -> cs.task_rank = 1)
      (Lint.Blocking_terms.blocking_sections ctx)
  in
  let durations =
    List.sort compare
      (List.map
         (fun (cs : Analysis.Blocking.critical_section) -> cs.duration)
         low)
  in
  check (list int) "members and merged chain all present"
    [ us 100; us 200; us 300 ]
    durations;
  (* the blocking term for rank 0 counts the whole chained episode *)
  let b = Lint.Blocking_terms.blocking_terms ctx in
  check bool "rank-0 blocking covers the chain" true (b.(0) >= us 300)

(* Direct hand-off at [sem_release] must re-inherit from the waiters
   that remain queued: the wait list is rank-sorted, so the new holder
   already dominates every remaining waiter's rank, but a remaining
   waiter's *deadline* component can be tighter.  Under EDF the
   un-re-inherited holder ran at its own (laxer) deadline and a
   model-checked PI property caught the inversion (campaign scenario
   gen-2468). *)
let test_handoff_reinherits_deadline () =
  let s = Objects.sem ~kind:Types.Emeralds () in
  (* tau3 (lowest rank) holds the lock; tau1 and tau2 queue on it.
     tau1 has the better RM rank and receives the hand-off, but tau2's
     deadline is the tighter one at that instant. *)
  let taskset =
    taskset_of [ (1, ms 40, ms 4); (2, ms 50, ms 2); (3, ms 60, ms 6) ]
  in
  let programs (t : Model.Task.t) =
    if t.id = 3 then
      [
        Program.compute (us 100);
        Program.acquire s;
        Program.compute (us 2000);
        Program.release s;
      ]
    else if t.id = 1 then
      [
        Program.compute (us 500);
        Program.acquire s;
        Program.compute (us 3000);
        Program.release s;
      ]
    else
      [
        Program.compute (us 800);
        Program.acquire s;
        Program.compute (us 200);
        Program.release s;
      ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset
      ~programs ()
  in
  Kernel.run k ~until:(ms 30);
  Kernel.check_invariants k;
  (* the hand-off recipient holds the lock while tau2 still waits; its
     effective deadline must be at least as tight as any waiter's *)
  let tr = Sim.Trace.entries (Kernel.trace k) in
  check bool "simulation produced hand-offs" true
    (List.exists
       (fun (st : Sim.Trace.stamped) ->
         match st.entry with
         | Sim.Trace.Sem_acquired _ -> true
         | _ -> false)
       tr);
  (* the model checker mirrors the hand-off; its PI property explores
     every interleaving of the same contention and must stay clean *)
  let sc =
    {
      Workload.Scenario.name = "handoff-reinherit";
      taskset;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let m = Mc.Machine.of_scenario sc in
  let props = List.filter_map Mc.Props.by_name [ "pi"; "invariants" ] in
  let bounds =
    { Mc.Explorer.horizon = ms 60; max_states = 20_000; max_depth = 4_000 }
  in
  let res = Mc.Explorer.check ~props ~bounds m in
  (match res.verdict with
  | `Ok -> ()
  | `Violation _ -> fail "MC found a PI violation after hand-off")

(* A task that acquires a mutex it already holds blocks on it, in the
   kernel as in the model checker, which reports the circular wait as
   a deadlock.  The kernel used to stop at an assertion instead.  Lint
   refuses such programs, so no catalog scenario reaches it. *)
let test_double_acquire_blocks () =
  let s = Objects.sem () in
  let taskset = taskset_of [ (1, ms 10, us 200); (2, ms 20, us 200) ] in
  let programs (t : Model.Task.t) =
    let open Program in
    if t.id = 1 then
      [ acquire s; acquire s; compute (us 100); release s; release s ]
    else [ acquire s; compute (us 100); release s ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.m68040 ~spec:Sched.Rm ~taskset ~programs ()
  in
  Kernel.run k ~until:(ms 40);
  Kernel.check_invariants k;
  List.iter
    (fun (st : Kernel.task_stats) ->
      check int (Printf.sprintf "tau%d completes no job" st.tid) 0
        st.jobs_completed)
    (Kernel.stats k);
  let sc =
    {
      Workload.Scenario.name = "double-acquire";
      taskset;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let m = Mc.Machine.of_scenario sc in
  match
    (Mc.Explorer.check ~props:[ Mc.Props.deadlock ]
       ~bounds:(Mc.Explorer.default_bounds m) m)
      .verdict
  with
  | `Violation cex -> check string "checker verdict" "deadlock" cex.prop
  | `Ok -> fail "the checker found no deadlock"

(* A place-holder that has itself inherited into a DP queue is no
   longer in the FP list, so its holder could not be sent home: CSD's
   optimized PI raised in [Util.Dlist.swap] on these five of the 1k
   seed-42 scenarios (gen-483 under [Csd [1]], among others).  Every
   CSD-2 and CSD-3 split must run them, and the kernel's invariants
   hold at the end.  Each horizon is the one the campaign simulated
   them over when they raised: twice the longest period, at most 1 s. *)
let test_csd_placeholder_migrates () =
  let root = Util.Rng.create ~seed:42 in
  List.iter
    (fun (i, horizon) ->
      let spec =
        Workload.Generator.spec_of ~rng:(Util.Rng.split root i) ~index:i ()
      in
      let sc = Workload.Generator.realize spec in
      let n = Model.Taskset.size sc.taskset in
      let splits =
        List.init (n - 1) (fun r -> [ r + 1 ])
        @ List.concat
            (List.init (n - 2) (fun a ->
                 List.init (n - 2 - a) (fun b -> [ a + 1; b + 1 ])))
      in
      List.iter
        (fun sizes ->
          let cfg =
            Fault.Inject.default_config ~scenario:sc ~spec:(Sched.Csd sizes)
              ~horizon ~seed:9 ()
          in
          let observer = Campaign.Eval.sporadic_observer spec ~horizon in
          Kernel.check_invariants
            (Fault.Inject.run { cfg with observer = Some observer }).kernel)
        splits)
    [ (11, ms 500); (456, ms 500); (483, ms 128); (533, ms 800); (642, ms 200) ]

(* Run [k] to [until], checking its invariants every 50us.  At zero
   cost the checks do not move the schedule. *)
let run_checked k ~until =
  let rec probes t =
    if t < until then begin
      Kernel.at k ~at:t (fun () -> Kernel.check_invariants k);
      probes (t + us 50)
    end
  in
  probes (us 50);
  Kernel.run k ~until;
  Kernel.check_invariants k

(* FP tasks Y > X > T > H and DP task W under CSD with optimized PI:
   X holds s1 and becomes H's place-holder (blocked on s2, or parked on
   its approach), Y is X's place-holder, and W then blocks on s1, so X
   and H leave the FP list.  [y_first]: Y blocks on s1 before X reaches
   H; otherwise X waits on [wq] with s2 as its hint and Y comes after.
   Without [with_y], Y only computes and X has no place-holder.  T,
   released at 2 ms, is ready until the chain unwinds.  Undoing the
   swaps in a fixed order stranded Y behind T in one of the two
   histories; a holder sent home kept its inherited priority behind T. *)
let csd_chain ~y_first ~with_y =
  let s1 = Objects.sem () and s2 = Objects.sem () and wq = Objects.waitq () in
  let task id period phase =
    Model.Task.make ~id ~period:(ms period) ~wcet:(ms 4) ~phase ()
  in
  let taskset =
    Model.Taskset.of_list
      [
        task 1 20 (ms 3);
        task 2 30 (if y_first then ms 1 else ms 2);
        task 3 40 (us 500);
        task 4 45 (ms 2);
        task 5 50 0;
      ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> [ acquire s1; compute (us 200); release s1 ]
    | 2 when with_y ->
      [ acquire s1; compute (us 200); release s1; compute (us 500) ]
    | 3 ->
      [ acquire s1 ]
      @ (if y_first then [ compute (ms 1) ] else [ wait wq ])
      @ [
          acquire s2;
          compute (us 200);
          release s2;
          release s1;
          compute (ms 1);
        ]
    | 5 -> [ acquire s2; compute (ms 4); release s2; compute (us 500) ]
    | _ -> [ compute (us 500) ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:(Sched.Csd [ 1 ]) ~taskset
      ~programs ()
  in
  Kernel.at k ~at:(us 1500) (fun () -> Kernel.signal_waitq k wq);
  run_checked k ~until:(ms 20);
  List.iter
    (fun (st : Kernel.task_stats) ->
      check int (Printf.sprintf "tau%d completes its job" st.tid) 1
        st.jobs_completed)
    (Kernel.stats k)

let test_csd_chain_blocked () = csd_chain ~y_first:true ~with_y:true
let test_csd_chain_approach () = csd_chain ~y_first:false ~with_y:true
let test_csd_approach_holder_follows () = csd_chain ~y_first:false ~with_y:false

(* The kernel's transitive step, not the scheduler, must move a
   follower that [holder] waits on by semaphore, or the step stops
   there and misses that follower's own blocker.  X (holding s1) waits
   on s2 held by H, H on s3 held by H2, which waits on [wq] and whose
   place-holder V displaced H's.  When DP task W blocks on s1, H2 must
   reach the DP queue too, or U preempts it once [wq] wakes it while W
   waits.  Optimized PI must give the per-task outcomes of standard
   PI, which has no place-holders. *)
let test_csd_chain_follows_semaphores () =
  let run optimized_pi =
    let s1 = Objects.sem () and s2 = Objects.sem () and s3 = Objects.sem () in
    let wq = Objects.waitq () in
    let task id period phase =
      Model.Task.make ~id ~period:(ms period) ~wcet:(ms 5) ~phase ()
    in
    let taskset =
      Model.Taskset.of_list
        [
          task 1 10 (us 2500);
          task 2 15 (us 2600);
          task 3 20 (ms 1);
          task 4 30 (us 1500);
          task 5 40 (us 500);
          task 6 50 0;
        ]
    in
    let programs (t : Model.Task.t) =
      let open Program in
      let section s = [ acquire s; compute (us 200); release s ] in
      match t.id with
      | 1 -> section s1
      | 2 -> [ compute (ms 1) ]
      | 3 -> section s3
      | 4 -> [ acquire s1 ] @ section s2 @ [ release s1 ]
      | 5 -> [ acquire s2 ] @ section s3 @ [ release s2 ]
      | _ ->
        [ acquire s3; wait wq; compute (us 300); release s3; compute (us 500) ]
    in
    let k =
      Kernel.create ~cost:Sim.Cost.zero ~optimized_pi ~spec:(Sched.Csd [ 1 ])
        ~taskset ~programs ()
    in
    Kernel.at k ~at:(ms 3) (fun () -> Kernel.signal_waitq k wq);
    run_checked k ~until:(ms 9);
    List.map
      (fun (st : Kernel.task_stats) ->
        (st.tid, st.jobs_completed, st.max_response))
      (Kernel.stats k)
  in
  check (list (triple int int int)) "optimized = standard" (run false)
    (run true)

let suite =
  [
    test_case "budget probe fires when detection is overdue" `Quick
      test_budget_probe_overdue;
    test_case "job numbers stay unique across sporadic arrivals" `Quick
      test_job_numbers_unique;
    test_case "back-to-back critical sections merge into a chain" `Quick
      test_chain_blocking_sections;
    test_case "chain merge keeps individual members" `Quick
      test_chain_keeps_members;
    test_case "hand-off re-inherits remaining waiters' deadlines" `Quick
      test_handoff_reinherits_deadline;
    test_case "a double acquire blocks on its own mutex" `Quick
      test_double_acquire_blocks;
    test_case "a place-holder may inherit into a DP queue" `Quick
      test_csd_placeholder_migrates;
    test_case "CSD: a blocked place-holder chain leaves the FP list" `Quick
      test_csd_chain_blocked;
    test_case "CSD: an approach place-holder chain leaves the FP list" `Quick
      test_csd_chain_approach;
    test_case "CSD: an approach place-holder's holder follows it" `Quick
      test_csd_approach_holder_follows;
    test_case "CSD: a semaphore chain follows as under standard PI" `Quick
      test_csd_chain_follows_semaphores;
  ]
