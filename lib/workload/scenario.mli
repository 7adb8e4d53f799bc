(** Named workloads with thread programs attached.

    {!Presets} gives the timing side of each workload (periods, WCETs);
    a scenario adds the behavioural side — per-task thread programs
    over statically allocated kernel objects, plus the declared side
    effects of interrupt handlers.  That is exactly the input the
    static verifier ([lib/lint]) needs, and enough to create a kernel
    and simulate — or to compile into the pure transition system the
    bounded model checker ([lib/mc]) explores.

    A built scenario may be linted, checked and run any number of
    times: every [Kernel.create] starts the objects its programs name
    from their declared state, so runs one after another do not see
    each other.  [make] and every builder below allocate fresh kernel
    objects on each call and restart the ids first
    ({!Emeralds.Ids.restart}), so every call numbers its objects
    alike. *)

type irq_source = {
  irq : int;
  min_interarrival : Model.Time.t;
      (** shortest gap between consecutive deliveries *)
  max_interarrival : Model.Time.t;
      (** longest gap before the source must fire again *)
  signals : Emeralds.Types.waitq list;
      (** wait queues one delivery signals *)
  writes : Emeralds.State_msg.t list;
      (** state messages one delivery publishes *)
}
(** A recurring environment interrupt with a declared inter-arrival
    window.  The simulator picks concrete arrival times; the model
    checker forks over the window ends. *)

type t = {
  name : string;
  taskset : Model.Taskset.t;
  programs : Model.Task.t -> Emeralds.Program.t;
  irq_sources : irq_source list;
      (** recurring interrupts with inter-arrival windows *)
  irq_signals : Emeralds.Types.waitq list;
      (** wait queues interrupt handlers signal (union over sources) *)
  irq_writes : Emeralds.State_msg.t list;
      (** state messages interrupt handlers publish (union over
          sources) *)
}

(** A named scenario of the {!catalog}. *)
type entry = {
  name : string;  (** the CLI's [--preset] spelling *)
  build : unit -> t;  (** a fresh instance *)
  static_only : string option;
      (** why the kernel cannot run it: such a scenario is for the
          static layers (lint, absint, the model checker) only *)
}

val catalog : entry list
(** Every named scenario: the shipped presets ({!names}), then the
    demos below under their CLI names — ["under-declared-demo"],
    ["over-budget-demo"], ["deadlock-demo"], ["inversion-demo"],
    ["overrun-demo"], ["alloc-demo"], ["leak-demo"],
    ["double-free-demo"] (static-only) and ["storm-demo"]. *)

val names : string list
(** The shipped presets: ["table2"; "engine"; "avionics"; "voice";
    "branchy"]. *)

val make : string -> t option
(** Fresh scenario for a {!catalog} name; [None] for unknown names. *)

val all : unit -> t list
(** A fresh scenario per shipped preset, in {!names} order. *)

val under_declared_wcet : unit -> t
(** A two-task demo whose second task declares a 1 ms WCET but
    computes 3 ms: the abstract interpreter ([lib/absint]) must derive
    a demand bound above the declaration and fail [analyze] with a
    [wcet-declaration] error. *)

val over_budget : unit -> t
(** A demo whose derived kernel-object footprint (a 64-deep, 600-word
    state message) exceeds the paper's 128 KB device envelope:
    [analyze] must fail it with a [budget] error. *)

val seeded_deadlock : unit -> t
(** An intentionally buggy two-task scenario whose mutexes are nested
    in opposite orders, with phases arranged so the circular wait is
    reachable within one hyperperiod.  The lint deadlock check flags
    it statically and the model checker must produce a witness trace —
    the guard against a checker that silently passes everything.
    Kept out of the shipped presets so they stay lint-clean. *)

val inversion_demo : unit -> t
(** A seeded priority inversion: the low-priority task grabs the
    shared semaphore at t = 0 and computes 6 ms inside the critical
    section; the high-priority task (4 ms relative deadline) releases
    at 1 ms, preempts, and blocks on the semaphore for the ~5 ms the
    inheritance-boosted holder needs to finish — so its first job
    misses with blocking as the dominant blame component.  The canvas
    for [emeralds_cli explain]: the attributor must name the contended
    semaphore.  Later jobs run contention-free. *)

val overrun_demo : unit -> t
(** A pure-compute, comfortably RM-schedulable three-task set (U =
    0.56) that runs clean unfaulted — the canvas for the WCET-overrun
    fault plan.  The CLI's ["overrun-demo"] inject preset scales tau2's
    demand 4x, which budget enforcement must detect and which falsifies
    the static response-time bounds. *)

val alloc_demo : unit -> t
(** An allocation-heavy but disciplined three-task set: blocks taken
    up front, all returned before job end, pool capacity (8) above the
    summed per-task peaks (5).  Runs denial- and leak-free — the
    canvas for the mem trace category, live-block metrics, the
    analyzer's pool-sizing table, and quota enforcement
    ([--mem-policy]). *)

val leak_demo : unit -> t
(** A per-job leak: tau1 allocates two blocks and frees one, so every
    completion leaves a block live.  The kernel reclaims and records
    it, the alloc-discipline lint proves it statically, and the
    campaign's mem oracle demands the verdicts agree. *)

val double_free_demo : unit -> t
(** A double free the lint walk flags exactly (the kernel raises on it
    at run time) — for the static analyzers only. *)

val storm_demo : unit -> t
(** An IRQ-driven sampler (waits a sample event delivered every 4-5 ms
    by irq 9), a periodic worker, and a sporadic task whose phase lies
    beyond the horizon (released only by [Kernel.trigger_job_at]) —
    the canvas for the arrival-model faults: IRQ storm, lost
    wait-queue signal, and sporadic bursts beyond the declared 20 ms
    minimum interarrival. *)
