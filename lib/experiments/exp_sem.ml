open Emeralds

type measurement = {
  queue_len : int;
  standard_us : float;
  emeralds_us : float;
  standard_switches : int;
  emeralds_switches : int;
}

let ms = Model.Time.ms
let horizon = ms 50

(* Build the Figure 6 scenario.  [queue_len] controls the scheduler
   queue length via never-released padding tasks; [with_sem] selects
   the real critical sections or the plain-compute baseline. *)
let scenario ~fp ~kind ~queue_len ~with_sem =
  assert (queue_len >= 3);
  let t2 = Model.Task.make ~id:1 ~period:(ms 40) ~wcet:(ms 2) () in
  let tx = Model.Task.make ~id:2 ~period:(ms 60) ~wcet:(ms 12) ~phase:(ms 1) () in
  let t1 = Model.Task.make ~id:3 ~period:(ms 100) ~wcet:(ms 8) () in
  (* Padding tasks never release (their phase is beyond the horizon);
     their periods sit between Tx's and T1's so T1's *restore* step
     under standard PI must scan past all of them — the O(n) cost the
     place-holder trick eliminates. *)
  let padding =
    List.init (queue_len - 3) (fun i ->
        Model.Task.make ~id:(4 + i)
          ~period:(ms 61 + Model.Time.us (100 * (i + 1)))
          ~wcet:(ms 1)
          ~phase:(Model.Time.sec 3600)
          ())
  in
  let taskset = Model.Taskset.of_list (t2 :: tx :: t1 :: padding) in
  let sem = Objects.sem ~kind () in
  let event = Objects.waitq () in
  let programs (task : Model.Task.t) =
    let open Program in
    match task.id with
    | 1 ->
      if with_sem then
        [ wait event; acquire sem; compute (ms 1); release sem ]
      else [ wait event; compute (ms 1) ]
    | 2 -> [ compute (ms 10) ]
    | 3 ->
      if with_sem then
        [ acquire sem; compute (ms 5); release sem; compute (ms 2) ]
      else [ compute (ms 5); compute (ms 2) ]
    | _ -> [ compute (ms 1) ]
  in
  let spec = if fp then Sched.Rm else Sched.Edf in
  let k =
    Kernel.create ~cost:Sim.Cost.m68040 ~spec ~taskset ~programs
      ~optimized_pi:(kind = Types.Emeralds) ()
  in
  (* Event E arrives while Tx executes and T1 holds S. *)
  Kernel.at k ~at:(ms 2) (fun () -> Kernel.signal_waitq k event);
  Kernel.run k ~until:horizon;
  k

let overhead_us k =
  Model.Time.to_us_f (Sim.Trace.overhead_total (Kernel.trace k))

let measure ~fp ~queue_len =
  let run ~kind ~with_sem =
    scenario ~fp ~kind ~queue_len ~with_sem
  in
  (* The baseline has no semaphore operations, so the scheme flag is
     irrelevant to it; run it once. *)
  let base = run ~kind:Types.Standard ~with_sem:false in
  let standard = run ~kind:Types.Standard ~with_sem:true in
  let emeralds = run ~kind:Types.Emeralds ~with_sem:true in
  let switches k = Sim.Trace.context_switches (Kernel.trace k) in
  {
    queue_len;
    standard_us = overhead_us standard -. overhead_us base;
    emeralds_us = overhead_us emeralds -. overhead_us base;
    standard_switches = switches standard;
    emeralds_switches = switches emeralds;
  }

let dp_fp_probe ~fp ~queue_len =
  overhead_us (scenario ~fp ~kind:Types.Emeralds ~queue_len ~with_sem:true)

let default_lengths = [ 3; 6; 9; 12; 15; 18; 21; 24; 27; 30 ]

let dp_curve ?(lengths = default_lengths) () =
  List.map (fun queue_len -> measure ~fp:false ~queue_len) lengths

let fp_curve ?(lengths = default_lengths) () =
  List.map (fun queue_len -> measure ~fp:true ~queue_len) lengths

let scenario_timeline ~kind =
  let k = scenario ~fp:true ~kind ~queue_len:6 ~with_sem:true in
  let name =
    match kind with Types.Standard -> "standard" | Types.Emeralds -> "EMERALDS"
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "-- %s semaphores --\n" name);
  let interesting (s : Sim.Trace.stamped) =
    s.at <= ms 20
    &&
    match s.entry with
    | Context_switch _ | Sem_acquired _ | Sem_blocked _ | Sem_released _
    | Priority_inherit _ | Priority_restore _ | Thread_block _
    | Thread_unblock _ | Note _ ->
      true
    | _ -> false
  in
  let pp (s : Sim.Trace.stamped) =
    if interesting s then begin
      let line = Format.asprintf "%a" Sim.Trace.pp_stamped s in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n'
    end
  in
  Sim.Trace.iter pp (Kernel.trace k);
  Buffer.contents buf

let render_curve ~title ms =
  let t =
    Util.Tablefmt.create
      ~headers:
        [ "queue len"; "standard (us)"; "EMERALDS (us)"; "saving (us)"; "saving %" ]
  in
  List.iter
    (fun m ->
      let saving = m.standard_us -. m.emeralds_us in
      Util.Tablefmt.add_row t
        [
          string_of_int m.queue_len;
          Util.Tablefmt.cell_f ~decimals:1 m.standard_us;
          Util.Tablefmt.cell_f ~decimals:1 m.emeralds_us;
          Util.Tablefmt.cell_f ~decimals:1 saving;
          Util.Tablefmt.cell_f ~decimals:0 (100. *. saving /. m.standard_us);
        ])
    ms;
  title ^ "\n" ^ Util.Tablefmt.render t

let run () =
  String.concat "\n"
    [
      "Figure 8 -- the eliminated context switch (scenario event sequences)";
      scenario_timeline ~kind:Types.Standard;
      scenario_timeline ~kind:Types.Emeralds;
      render_curve
        ~title:
          "Figure 11 -- acquire/release overhead vs DP (EDF) queue length"
        (dp_curve ());
      "";
      render_curve
        ~title:
          "Figure 12 (reconstructed) -- acquire/release overhead vs FP queue length"
        (fp_curve ());
    ]
