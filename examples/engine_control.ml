(* Engine control: the paper's motivating application class (§1).

   A 12-task engine controller where:
   - a crank-angle interrupt publishes engine speed as a *state
     message* (wait-free, every control task reads the freshest value);
   - the fuel and spark tasks synchronise on a shared fuel-map object
     through an EMERALDS semaphore, with the instrumented blocking
     call ahead of the acquire (the code-parser hint);
   - the whole workload is validated off-line under CSD-3 and then run
     for two seconds of virtual time.

     dune exec examples/engine_control.exe *)

open Emeralds

let ms = Model.Time.ms
let cost = Sim.Cost.m68040

(* The shipped [engine] scenario: the task set, each task's program
   over statically allocated objects (§3), and the crank interrupt
   source, whose state message carries engine speed. *)
let scenario = Option.get (Workload.Scenario.make "engine")
let taskset = scenario.taskset
let programs = scenario.programs
let crank = List.hd scenario.irq_sources
let engine_speed = List.hd crank.writes

let () =
  Printf.printf "engine-control workload: %d tasks, U = %.3f\n"
    (Model.Taskset.size taskset)
    (Model.Taskset.utilization taskset);

  (* Pick the CSD-3 partition the paper's off-line search would. *)
  (match Analysis.Partition.exhaustive_best ~cost ~queues:3 taskset with
  | Some sizes ->
    Printf.printf "off-line CSD-3 allocation: DP1=%d DP2=%d FP=%d tasks\n"
      (List.nth sizes 0) (List.nth sizes 1)
      (Model.Taskset.size taskset - List.fold_left ( + ) 0 sizes)
  | None -> Printf.printf "no feasible CSD-3 allocation found\n");

  let spec = Sched.Csd [ 3; 4 ] in
  let k = Kernel.create ~cost ~spec ~taskset ~programs () in

  (* Crank interrupts at ~6000 rpm: every 10 ms the handler samples the
     timer and publishes speed. *)
  Kernel.register_irq k ~irq:crank.irq ~writes:[ engine_speed ]
    ~handler:(fun () ->
      let rpm = 6000 + ((Model.Time.to_ms_f (Kernel.now k) |> int_of_float) mod 200) in
      State_msg.write engine_speed [| rpm; Kernel.now k / 1_000_000 |])
    ();

  (* Statically verify the programs before interpreting them: same
     taskset and programs the kernel just got, IRQ side effects from
     the registration above. *)
  let lint_ctx =
    Lint.Ctx.make
      ~irq_signals:(Kernel.irq_signals k)
      ~irq_writes:(Kernel.irq_state_writes k)
      ~taskset ~programs ()
  in
  let findings = Lint.Report.run lint_ctx in
  print_string (Lint.Report.render findings);
  if Lint.Diag.errors findings > 0 then begin
    print_endline "lint errors: refusing to run";
    exit 1
  end;

  (* Derive the static memory footprint for this workload and hold it
     against the paper's 32-128 KB device envelope before running. *)
  let ab = Absint.Report.analyze scenario in
  Printf.printf
    "derived footprint: %d bytes code + %d bytes RAM = %d bytes \
     (envelope %d-%d): %s\n"
    ab.code_bytes ab.ram_bytes ab.total_bytes Absint.Memory.envelope_lo
    ab.budget_bytes
    (if ab.total_bytes <= ab.budget_bytes then "ok" else "OVER BUDGET");
  if ab.total_bytes > ab.budget_bytes then begin
    print_endline "footprint over budget: refusing to run";
    exit 1
  end;

  let rec schedule_crank t =
    if t <= Model.Time.sec 2 then begin
      Kernel.raise_irq_at k ~at:t ~irq:crank.irq;
      schedule_crank (t + ms 10)
    end
  in
  schedule_crank (ms 1);

  Kernel.run k ~until:(Model.Time.sec 2);

  let tr = Kernel.trace k in
  Printf.printf "\nafter 2s: %d deadline misses, %d context switches\n"
    (Sim.Trace.deadline_misses tr)
    (Sim.Trace.context_switches tr);
  Printf.printf "last engine speed published: %d rpm (seq %d)\n"
    (State_msg.read engine_speed).(0)
    (State_msg.seq engine_speed);
  Printf.printf "kernel overhead: %.2fms over 2000ms (%.2f%%)\n"
    (Model.Time.to_ms_f (Sim.Trace.overhead_total tr))
    (Model.Time.to_ms_f (Sim.Trace.overhead_total tr) /. 20.);
  List.iter
    (fun (s : Kernel.task_stats) ->
      Printf.printf "  tau%-2d jobs %4d  misses %d  max response %7.2fms\n"
        s.tid s.jobs_completed s.misses
        (Model.Time.to_ms_f s.max_response))
    (Kernel.stats k)
