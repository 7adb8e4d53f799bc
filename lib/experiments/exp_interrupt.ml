open Emeralds

type row = {
  background_tasks : int;
  background_utilization : float;
  mean_latency_us : float;
  max_latency_us : float;
  interrupts : int;
}

let ms = Model.Time.ms
let us = Model.Time.us
let horizon = Model.Time.sec 1
let target_bg_utilization = 0.5

let driver_tid = 99

let build_taskset ~background =
  let driver =
    Model.Task.make ~id:driver_tid ~period:(ms 5) ~deadline:(ms 20)
      ~wcet:(us 200) ()
  in
  let bg =
    List.init background (fun i ->
        let period = ms (10 + (7 * i)) in
        let wcet =
          max (us 50)
            (int_of_float
               (float_of_int period *. target_bg_utilization
               /. float_of_int background))
        in
        Model.Task.make ~id:(i + 1) ~period ~wcet ())
  in
  Model.Taskset.of_list (driver :: bg)

let measure_one ?(spec = Sched.Csd [ 1 ]) ~irqs ~background () =
  let taskset = build_taskset ~background in
  let k = Kernel.create ~cost:Sim.Cost.m68040 ~spec ~taskset () in
  let drv = Driver.attach k ~irq:1 () in
  let tcb = Kernel.tcb k ~tid:driver_tid in
  tcb.Types.program <-
    [| Driver.wait_for_interrupt drv; Program.compute (us 200) |];
  tcb.Types.hints <- Program.derive_hints tcb.Types.program;
  let spacing = horizon / (irqs + 1) in
  for i = 1 to irqs do
    Driver.raise_at drv ~at:(i * spacing)
  done;
  Kernel.run k ~until:horizon;
  (* Latency: interrupt entry -> the switch that hands the CPU to the
     driver thread. *)
  let latencies = ref [] in
  let pending = ref None in
  Sim.Trace.iter
    (fun (s : Sim.Trace.stamped) ->
      match s.entry with
      | Interrupt _ -> if !pending = None then pending := Some s.at
      | Context_switch { to_tid = Some tid; _ } when tid = driver_tid -> (
        match !pending with
        | Some t0 ->
          latencies := Model.Time.to_us_f (s.at - t0) :: !latencies;
          pending := None
        | None -> ())
      | _ -> ())
    (Kernel.trace k);
  let ls = !latencies in
  let n = List.length ls in
  let bg_u =
    Model.Taskset.utilization taskset -. Model.Task.utilization tcb.Types.task
  in
  {
    background_tasks = background;
    background_utilization = bg_u;
    mean_latency_us =
      (if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 ls /. float_of_int n);
    max_latency_us = List.fold_left max 0.0 ls;
    interrupts = n;
  }

let measure ?spec ?(irqs = 60) ?(background = [ 2; 5; 10; 20; 40 ]) () =
  List.map (fun b -> measure_one ?spec ~irqs ~background:b ()) background

let render rows =
  let t =
    Util.Tablefmt.create
      ~headers:
        [ "bg tasks"; "bg util"; "irqs"; "mean latency (us)"; "max latency (us)" ]
  in
  List.iter
    (fun r ->
      Util.Tablefmt.add_row t
        [
          string_of_int r.background_tasks;
          Util.Tablefmt.cell_f r.background_utilization;
          string_of_int r.interrupts;
          Util.Tablefmt.cell_f ~decimals:1 r.mean_latency_us;
          Util.Tablefmt.cell_f ~decimals:1 r.max_latency_us;
        ])
    rows;
  Util.Tablefmt.render t

let render_contrast csd edf =
  let t =
    Util.Tablefmt.create
      ~headers:[ "bg tasks"; "CSD mean (us)"; "EDF mean (us)" ]
  in
  List.iter2
    (fun (c : row) (e : row) ->
      Util.Tablefmt.add_row t
        [
          string_of_int c.background_tasks;
          Util.Tablefmt.cell_f ~decimals:1 c.mean_latency_us;
          Util.Tablefmt.cell_f ~decimals:1 e.mean_latency_us;
        ])
    csd edf;
  Util.Tablefmt.render t

let run () =
  let csd = measure () in
  let edf = measure ~spec:Sched.Edf () in
  "Interrupt-to-driver-thread latency (SS3's user-level driver path):\n"
  ^ "the driver thread sits atop a CSD DP queue, so latency is the\n"
  ^ "kernel's constant interrupt+dispatch cost regardless of how much\n"
  ^ "lower-priority load is running.\n\n"
  ^ render csd
  ^ "\nContrast with pure EDF, whose O(n) selection makes the same\n"
  ^ "latency grow with the total task count:\n\n"
  ^ render_contrast csd edf
