open Emeralds

type irq_source = {
  irq : int;
  min_interarrival : Model.Time.t;
  max_interarrival : Model.Time.t;
  signals : Types.waitq list;
  writes : State_msg.t list;
}

type t = {
  name : string;
  taskset : Model.Taskset.t;
  programs : Model.Task.t -> Program.t;
  irq_sources : irq_source list;
  irq_signals : Types.waitq list;
  irq_writes : State_msg.t list;
}

let us = Model.Time.us
let ms = Model.Time.ms

(* Every builder restarts the object ids, so each call numbers its
   objects alike. *)
let fresh build () = Ids.restart (); build ()

(* The lint-facing signal/write lists are the union over sources, so a
   scenario declares each interrupt once. *)
let with_sources ~name ~taskset ~programs sources =
  {
    name;
    taskset;
    programs;
    irq_sources = sources;
    irq_signals = List.concat_map (fun s -> s.signals) sources;
    irq_writes = List.concat_map (fun s -> s.writes) sources;
  }

(* Pure computation: the Table 2 schedulability workload has no
   synchronisation story, so every job just burns its WCET. *)
let table2 = fresh @@ fun () ->
  with_sources ~name:"table2" ~taskset:Presets.table2
    ~programs:(fun (task : Model.Task.t) -> [ Program.compute task.wcet ])
    []

(* The engine controller (examples/engine_control.ml runs it): a crank IRQ
   publishes engine speed as a state message, the fuel/spark tasks
   share the fuel-map object under an EMERALDS semaphore, and knock
   diagnostics waits for the spark window.  The crank window models
   6000 rpm with speed wander. *)
let engine = fresh @@ fun () ->
  let engine_speed = State_msg.create ~depth:3 ~words:2 in
  let fuel_map = Objects.sem ~kind:Types.Emeralds () in
  let spark_event = Objects.waitq () in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ state_read engine_speed; compute (us 800) ]
    | 2 -> [ state_read engine_speed; compute (us 500) ]
    | 3 ->
      state_read engine_speed :: compute (us 300)
      :: critical fuel_map (us 900)
    | 4 ->
      compute (us 500)
      :: (critical fuel_map (us 1500) @ [ signal spark_event ])
    | 5 -> [ state_read engine_speed; compute (us 1600) ]
    | 8 ->
      compute (us 2000) :: (wait spark_event :: critical fuel_map (us 2500))
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"engine" ~taskset:Presets.engine_control ~programs
    [
      {
        irq = 7;
        min_interarrival = ms 9;
        max_interarrival = ms 11;
        signals = [];
        writes = [ engine_speed ];
      };
    ]

(* Avionics: an air-data IRQ publishes sensor state for the fast
   control loops, navigation shares a filter state under a semaphore,
   landing gear raises an event the monitor waits on, and maintenance
   streams log records through a mailbox. *)
let avionics = fresh @@ fun () ->
  let air_data = State_msg.create ~depth:2 ~words:4 in
  let nav_state = Objects.sem ~kind:Types.Emeralds () in
  let gear_event = Objects.waitq () in
  let maint_log = Objects.mailbox ~capacity:4 () in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ state_read air_data; compute (us 600) ]
    | 2 -> [ state_read air_data; compute (us 1000) ]
    | 3 ->
      (* navigation filter update inside the shared-state monitor *)
      compute (us 200) :: critical nav_state (us 500)
    | 5 -> [ compute (us 1300); signal gear_event ]
    | 6 ->
      (* guidance reads the filter output under the same lock *)
      compute (us 1500) :: critical nav_state (us 900)
    | 9 ->
      (* gear/flap monitor: waits for the actuation event *)
      compute (us 2000) :: [ wait gear_event; compute (us 1800) ]
    | 12 -> [ compute (us 9000); send maint_log (words 2) ]
    | 13 -> [ recv maint_log; compute (us 15000) ]
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"avionics" ~taskset:Presets.avionics ~programs
    [
      {
        irq = 3;
        min_interarrival = ms 20;
        max_interarrival = ms 25;
        signals = [];
        writes = [ air_data ];
      };
    ]

(* Voice terminal: the codec task owns the frame-clock state message
   (single writer, no IRQ involvement), shares the codec buffer with
   the channel protocol, and the protocol streams frames to the
   battery/thermal logger through a mailbox. *)
let voice = fresh @@ fun () ->
  let frame_clock = State_msg.create ~depth:2 ~words:1 in
  let codec_buf = Objects.sem ~kind:Types.Emeralds () in
  let tx_queue = Objects.mailbox ~capacity:8 () in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 ->
      state_write frame_clock (words 1)
      :: (critical codec_buf (us 2500) @ [ compute (us 4000) ])
    | 2 -> [ state_read frame_clock; compute (us 1400) ]
    | 3 ->
      compute (us 700)
      :: (critical codec_buf (us 1200) @ [ send tx_queue (words 3) ])
    | 5 -> [ state_read frame_clock; compute (us 7500) ]
    | 6 -> [ recv tx_queue; compute (us 5000) ]
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"voice" ~taskset:Presets.voice ~programs []

(* Structured control flow end to end: the estimator takes a cheap or
   expensive path per job, decided by the kernel from the seeded input
   word; the filter runs a bounded inner loop; and the burst task
   grabs frame blocks in a loop, retaining one per iteration until the
   tail returns them all (peak 4 of the pool's 8).  Declared WCETs
   cover the heavier arm and the full iteration count — the worst-path
   demand the path-sensitive analyzer derives — so lint, absint, RTA,
   the model checker and the footprint report all stay clean. *)
let branchy = fresh @@ fun () ->
  let frames = Objects.pool ~block_bytes:32 ~capacity:8 () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"estimator" ~period:(ms 10)
          ~wcet:(us 2600) ();
        Model.Task.make ~id:2 ~name:"filter" ~period:(ms 20) ~wcet:(us 3800)
          ();
        Model.Task.make ~id:3 ~name:"burst" ~period:(ms 50) ~wcet:(us 3100) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ if_input [ compute (ms 1) ] [ compute (ms 2); compute (us 500) ] ]
    | 2 -> [ compute (us 500); repeat 4 [ compute (us 800) ] ]
    | 3 ->
      [
        repeat 3 [ alloc frames; alloc frames; compute (ms 1); free frames ];
        free frames; free frames; free frames;
      ]
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"branchy" ~taskset ~programs []

(* A WCET lie: tau2 declares 1 ms but its program computes 3 ms.  The
   abstract interpreter's demand bound exceeds the declaration, which
   every schedulability result downstream silently trusts — exactly
   the failure `analyze` exists to catch. *)
let under_declared_wcet = fresh @@ fun () ->
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"honest" ~period:(ms 10) ~wcet:(ms 2) ();
        Model.Task.make ~id:2 ~name:"liar" ~period:(ms 20) ~wcet:(ms 1) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 2 -> [ compute (ms 3) ]
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"under-declared-demo" ~taskset ~programs []

(* A configuration the paper's devices cannot host: one task publishes
   a 64-deep, 600-word state message — 64 x 600 x 4 bytes of buffer
   alone — blowing through the 128 KB envelope once kernel code and
   the other objects are added. *)
let over_budget = fresh @@ fun () ->
  let bulk = State_msg.create ~depth:64 ~words:600 in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"logger" ~period:(ms 20) ~wcet:(ms 4) ();
        Model.Task.make ~id:2 ~name:"reader" ~period:(ms 40) ~wcet:(ms 2) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ compute (ms 2); state_write bulk (words 600) ]
    | _ -> [ state_read bulk; compute (ms 1) ]
  in
  with_sources ~name:"over-budget-demo" ~taskset ~programs []

(* Opposite-order nesting with phases arranged so the circular wait is
   reachable: tau2 takes B at t=0 and computes; tau1 preempts at 1 ms,
   takes A, and blocks on B; tau2 resumes and blocks on A — deadlock
   at 5 ms, well inside the 50 ms hyperperiod. *)
let seeded_deadlock = fresh @@ fun () ->
  let sem_a = Objects.sem () in
  let sem_b = Objects.sem () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"hi" ~period:(ms 10) ~wcet:(ms 3)
          ~phase:(ms 1) ();
        Model.Task.make ~id:2 ~name:"lo" ~period:(ms 50) ~wcet:(ms 6) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 ->
      [
        acquire sem_a; compute (ms 1); acquire sem_b; release sem_b;
        release sem_a;
      ]
    | _ ->
      [
        acquire sem_b; compute (ms 4); acquire sem_a; release sem_a;
        release sem_b;
      ]
  in
  with_sources ~name:"seeded-deadlock" ~taskset ~programs []

(* One shared semaphore, held 6 ms by the low-priority task from
   t = 0; the high-priority task (deadline 4 ms < period) arrives at
   1 ms and inherits-boosts the holder, eating ~5 ms of blocking
   against a 2 ms compute — its first job must miss, and blame must
   pin the miss on the semaphore rather than on interference. *)
let inversion_demo = fresh @@ fun () ->
  let sem = Objects.sem () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"hi" ~period:(ms 10) ~deadline:(ms 4)
          ~wcet:(ms 2) ~phase:(ms 1) ();
        Model.Task.make ~id:2 ~name:"lo" ~period:(ms 50) ~wcet:(ms 7) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ acquire sem; compute (ms 2); release sem ]
    | _ -> [ acquire sem; compute (ms 6); release sem; compute (ms 1) ]
  in
  with_sources ~name:"inversion-demo" ~taskset ~programs []

(* A comfortably RM-schedulable pure-compute set (U = 0.56; the RTA
   bounds sit well inside every deadline), the canvas for the
   WCET-overrun fault plan: unfaulted it runs clean, while the
   [overrun-demo] inject preset scales tau2's demand 4x — enough that
   the budget watcher must fire and the analytical response-time bounds
   for tau2/tau3 are falsified by observed misses. *)
let overrun_demo = fresh @@ fun () ->
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"ctrl" ~period:(ms 10) ~wcet:(ms 2) ();
        Model.Task.make ~id:2 ~name:"filter" ~period:(ms 20) ~wcet:(ms 4) ();
        Model.Task.make ~id:3 ~name:"logger" ~period:(ms 50) ~wcet:(ms 8) ();
      ]
  in
  let programs (task : Model.Task.t) = [ Program.compute task.wcet ] in
  with_sources ~name:"overrun-demo" ~taskset ~programs []

(* An allocation-heavy but disciplined set: every job takes its blocks
   up front and returns them all before completing, and the pool's
   8 blocks cover the summed per-task peaks (3 + 2 = 5) with slack, so
   the run is denial- and leak-free.  The canvas for the mem trace
   category, live-block metrics, and quota enforcement: --mem-policy
   installs the analyzer's peak-live bounds as quotas and nothing
   fires, while the static pool-sizing table shows 5/8 blocks used. *)
let alloc_demo = fresh @@ fun () ->
  let frames = Objects.pool ~block_bytes:64 ~capacity:8 () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"producer" ~period:(ms 10) ~wcet:(ms 2) ();
        Model.Task.make ~id:2 ~name:"mixer" ~period:(ms 20) ~wcet:(ms 5) ();
        Model.Task.make ~id:3 ~name:"idle" ~period:(ms 50) ~wcet:(ms 4) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 ->
      [
        alloc frames; compute (ms 1); alloc frames; compute (us 800);
        free frames; free frames;
      ]
    | 2 ->
      [
        alloc frames; alloc frames; alloc frames; compute (ms 4);
        free frames; free frames; free frames;
      ]
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"alloc-demo" ~taskset ~programs []

(* A leak: tau1 allocates two blocks per job and frees only one, so
   every job completion leaves a block live — the kernel reclaims it
   and records the leak, the alloc-discipline lint proves it
   statically (the 6-block pool would exhaust within 6 jobs), and the
   campaign's mem oracle demands the two verdicts agree. *)
let leak_demo = fresh @@ fun () ->
  let buffers = Objects.pool ~block_bytes:32 ~capacity:6 () in
  let taskset =
    Model.Taskset.of_list
      [
        (* declared WCETs cover the computes plus the 4.8 us
           syscall+pool charge of each alloc/free *)
        Model.Task.make ~id:1 ~name:"leaky" ~period:(ms 10) ~wcet:(us 2015) ();
        Model.Task.make ~id:2 ~name:"clean" ~period:(ms 25) ~wcet:(us 3010) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ alloc buffers; alloc buffers; compute (ms 2); free buffers ]
    | _ -> [ alloc buffers; compute (ms 3); free buffers ]
  in
  with_sources ~name:"leak-demo" ~taskset ~programs []

(* A double free: tau1 frees the same block twice, returning one it no
   longer holds.  The lint walk flags the second free exactly (the
   kernel would raise on it at run time), so this demo is for the
   static analyzers only. *)
let double_free_demo = fresh @@ fun () ->
  let scratch = Objects.pool ~block_bytes:16 ~capacity:4 () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"sloppy" ~period:(ms 10) ~wcet:(ms 2) ();
      ]
  in
  let programs (_ : Model.Task.t) =
    let open Program in
    [ alloc scratch; compute (ms 1); free scratch; free scratch ]
  in
  with_sources ~name:"double-free-demo" ~taskset ~programs []

(* An IRQ-driven sampler plus a sporadic server, the canvas for the
   arrival-model faults (IRQ storm, lost wait-queue signal, sporadic
   burst beyond the declared minimum interarrival).  The sampler waits
   on the sample event each job; the IRQ source delivers it every
   4-5 ms, faster than the 10 ms period, so pending signals keep the
   unfaulted run clean.  tau3's phase lies beyond any simulation
   horizon: its jobs arrive only via [Kernel.trigger_job_at] — the
   sporadic arrivals §5 motivates — with [period] as the declared
   minimum interarrival the burst fault then violates. *)
let storm_demo = fresh @@ fun () ->
  let sample_ready = Objects.waitq () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"sampler" ~period:(ms 10) ~wcet:(ms 1) ();
        Model.Task.make ~id:2 ~name:"worker" ~period:(ms 15) ~wcet:(ms 3) ();
        Model.Task.make ~id:3 ~name:"sporadic" ~period:(ms 20) ~wcet:(ms 5)
          ~phase:(ms 100_000) ();
      ]
  in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 -> [ wait sample_ready; compute (ms 1) ]
    | _ -> [ compute task.wcet ]
  in
  with_sources ~name:"storm-demo" ~taskset ~programs
    [
      {
        irq = 9;
        min_interarrival = ms 4;
        max_interarrival = ms 5;
        signals = [ sample_ready ];
        writes = [];
      };
    ]

type entry = { name : string; build : unit -> t; static_only : string option }

let entry ?static_only name build = { name; build; static_only }

let shipped =
  [
    entry "table2" table2; entry "engine" engine; entry "avionics" avionics;
    entry "voice" voice; entry "branchy" branchy;
  ]

let catalog =
  shipped
  @ [
      entry "under-declared-demo" under_declared_wcet;
      entry "over-budget-demo" over_budget;
      entry "deadlock-demo" seeded_deadlock;
      entry "inversion-demo" inversion_demo;
      entry "overrun-demo" overrun_demo;
      entry "alloc-demo" alloc_demo;
      entry "leak-demo" leak_demo;
      entry "double-free-demo" double_free_demo
        ~static_only:"the kernel raises on its double free";
      entry "storm-demo" storm_demo;
    ]

let names = List.map (fun e -> e.name) shipped

let make name =
  List.find_opt (fun e -> e.name = name) catalog
  |> Option.map (fun e -> e.build ())

let all () = List.map (fun e -> e.build ()) shipped
