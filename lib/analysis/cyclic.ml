type slot = {
  start : Model.Time.t;
  duration : Model.Time.t;
  tid : int option;
}

type table = {
  minor_frame : Model.Time.t;
  major_cycle : Model.Time.t;
  slots : slot list;
}

let generate taskset =
  if Model.Taskset.max_phase taskset > 0 then
    invalid_arg "Cyclic.generate: tasks must have zero phase";
  let major = Model.Taskset.hyperperiod taskset in
  let minor =
    Array.fold_left
      (fun acc (t : Model.Task.t) -> Util.Intmath.gcd acc t.period)
      0
      (Model.Taskset.tasks taskset)
  in
  (* Lay out the ideal schedule by replaying a zero-overhead EDF run
     over one major cycle. *)
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf
      ~taskset ()
  in
  (* one extra nanosecond so deadline checks at the cycle's end fire *)
  Emeralds.Kernel.run k ~until:(major + 1);
  if Emeralds.Kernel.total_misses k > 0 then None
  else begin
    (* Fold the context switches into (start, tid) change points. *)
    let changes =
      List.filter_map
        (fun (s : Sim.Trace.stamped) ->
          match s.entry with
          | Sim.Trace.Context_switch { to_tid; _ } -> Some (s.at, to_tid)
          | _ -> None)
        (Sim.Trace.entries (Emeralds.Kernel.trace k))
    in
    let changes =
      match changes with
      | (0, _) :: _ -> changes
      | _ -> (0, None) :: changes
    in
    let rec to_slots = function
      | [] -> []
      | [ (start, tid) ] -> [ { start; duration = major - start; tid } ]
      | (start, tid) :: ((next, _) :: _ as rest) ->
        { start; duration = next - start; tid } :: to_slots rest
    in
    let slots =
      to_slots changes
      |> List.filter (fun s -> s.duration > 0)
      (* merge adjacent slots of the same task *)
      |> List.fold_left
           (fun acc s ->
             match acc with
             | prev :: rest
               when prev.tid = s.tid
                    && prev.start + prev.duration = s.start ->
               { prev with duration = prev.duration + s.duration } :: rest
             | _ -> s :: acc)
           []
      |> List.rev
    in
    Some { minor_frame = minor; major_cycle = major; slots }
  end

let slot_count t = List.length t.slots

let memory_bytes t = 6 * slot_count t

let utilization_of_slots t =
  let busy =
    List.fold_left
      (fun acc s -> if s.tid = None then acc else acc + s.duration)
      0 t.slots
  in
  float_of_int busy /. float_of_int t.major_cycle

(* Idle time available in [a, a + span) assuming the table repeats. *)
let worst_aperiodic_response t ~wcet =
  let idle_per_cycle =
    List.fold_left
      (fun acc s -> if s.tid = None then acc + s.duration else acc)
      0 t.slots
  in
  if idle_per_cycle <= 0 then None
  else begin
    let slots = Array.of_list t.slots in
    let n = Array.length slots in
    (* Serve [wcet] from idle slack starting at arrival [a]; return the
       completion instant. *)
    let completion a =
      let remaining = ref wcet in
      let finish = ref a in
      let i = ref 0 in
      let guard = ref 0 in
      while !remaining > 0 do
        incr guard;
        if !guard > 100 * (n + 1) then failwith "Cyclic: no progress";
        let cycle = !i / n and idx = !i mod n in
        let s = slots.(idx) in
        let abs_start = s.start + (cycle * t.major_cycle) in
        let abs_end = abs_start + s.duration in
        if abs_end > a then begin
          let from_ = Model.Time.max a abs_start in
          if s.tid = None && abs_end > from_ then begin
            let available = abs_end - from_ in
            let used = min available !remaining in
            remaining := !remaining - used;
            finish := from_ + used
          end
        end;
        incr i
      done;
      !finish - a
    in
    (* Sample arrivals at every slot boundary and just after it: the
       response is piecewise linear between these points, so the
       sampled maximum is within 1 ns of the true worst case. *)
    let candidates =
      List.concat_map (fun s -> [ s.start; s.start + 1 ]) t.slots
    in
    Some (List.fold_left (fun acc a -> Model.Time.max acc (completion a)) 0 candidates)
  end
