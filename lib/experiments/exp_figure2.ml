type outcome = {
  scheduler : string;
  misses : int;
  missed_task : int option;
  first_miss_ms : float option;
  context_switches : int;
}

let horizon = Model.Time.ms 2520 (* three lcm(4..8)=840ms short-task cycles *)

let simulate spec =
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec
      ~taskset:Workload.Presets.table2 ()
  in
  Emeralds.Kernel.run k ~until:horizon;
  k

let outcome_of spec =
  let k = simulate spec in
  let tr = Emeralds.Kernel.trace k in
  let missed_task, first_miss_ms =
    match Sim.Trace.first_miss tr with
    | Some { at; entry = Deadline_miss { tid; _ } } ->
      (Some tid, Some (Model.Time.to_ms_f at))
    | Some _ | None -> (None, None)
  in
  {
    scheduler = Emeralds.Sched.spec_name spec;
    misses = Sim.Trace.deadline_misses tr;
    missed_task;
    first_miss_ms;
    context_switches = Sim.Trace.context_switches tr;
  }

let specs =
  [
    Emeralds.Sched.Rm;
    Emeralds.Sched.Edf;
    Emeralds.Sched.Csd [ Workload.Presets.table2_troublesome_rank + 1 ];
    Emeralds.Sched.Csd [ 2; 3 ];
  ]

let outcomes () = List.map outcome_of specs

(* Figure 2 rendering: which task runs during [0, 10ms), from the RM
   trace's context switches. *)
let rm_timeline () =
  let k = simulate Emeralds.Sched.Rm in
  let tr = Emeralds.Kernel.trace k in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "t (ms)    running (RM schedule, Figure 2)\n";
  let current = ref None in
  let started = ref 0 in
  let flush_segment until =
    (match !current with
    | Some tid when until > !started ->
      Buffer.add_string buf
        (Printf.sprintf "%6.2f - %6.2f  tau%d\n"
           (Model.Time.to_ms_f !started)
           (Model.Time.to_ms_f until) tid)
    | Some _ | None -> ())
  in
  let visit (s : Sim.Trace.stamped) =
    if s.at <= Model.Time.ms 10 then
      match s.entry with
      | Context_switch { to_tid; _ } ->
        flush_segment s.at;
        current := to_tid;
        started := s.at
      | Deadline_miss { tid; _ } ->
        flush_segment s.at;
        started := s.at;
        Buffer.add_string buf
          (Printf.sprintf "%6.2f          << tau%d MISSES its deadline\n"
             (Model.Time.to_ms_f s.at) tid)
      | _ -> ()
  in
  Sim.Trace.iter visit tr;
  flush_segment (Model.Time.ms 10);
  Buffer.contents buf

let run () =
  let t =
    Util.Tablefmt.create
      ~headers:[ "scheduler"; "misses"; "first miss"; "switches" ]
  in
  List.iter
    (fun o ->
      Util.Tablefmt.add_row t
        [
          o.scheduler;
          string_of_int o.misses;
          (match (o.missed_task, o.first_miss_ms) with
          | Some tid, Some ms -> Printf.sprintf "tau%d @ %.1fms" tid ms
          | _ -> "-");
          string_of_int o.context_switches;
        ])
    (outcomes ());
  "Figure 2 / Table 2 -- RM misses tau5's 8 ms deadline; EDF and CSD do not\n"
  ^ Printf.sprintf "(workload U = %.3f, simulated for 2520 ms)\n\n"
      (Model.Taskset.utilization Workload.Presets.table2)
  ^ Util.Tablefmt.render t ^ "\n" ^ rm_timeline ()
