(* Tolerance on the returned utilization. *)
let tol = 0.004

let search ~feasible ~u0 =
  if u0 <= 0.0 then invalid_arg "Breakdown.search: non-positive utilization";
  (* Work in utilization space: u = u0 * scale. *)
  let feasible_u u = feasible (u /. u0) in
  (* A workload can never be feasible beyond U = 1 (EDF's ideal bound),
     and every scheduler here is work-conserving, so 1.02 is a safe
     infeasible upper seed; still, verify and widen defensively. *)
  let rec find_hi hi tries =
    if tries = 0 then hi
    else if feasible_u hi then find_hi (hi *. 2.0) (tries - 1)
    else hi
  in
  let hi = find_hi 1.02 8 in
  if feasible_u hi then hi (* give up widening: report the bound *)
  else begin
    let lo = ref 0.0 and hi = ref hi in
    (* lo = 0 encodes "nothing feasible yet found"; probe a tiny load
       first so pure-overhead infeasibility returns 0 quickly. *)
    if not (feasible_u (min 0.02 (!hi /. 64.))) then 0.0
    else begin
      lo := min 0.02 (!hi /. 64.);
      while !hi -. !lo > tol do
        let mid = (!lo +. !hi) /. 2.0 in
        if feasible_u mid then lo := mid else hi := mid
      done;
      !lo
    end
  end

let feasible_scaled ~cost ~spec taskset s =
  match Model.Taskset.scale_wcets taskset s with
  | None -> false
  | Some scaled -> Feasibility.feasible ~cost ~spec scaled

let of_spec ~cost ~spec taskset =
  let u0 = Model.Taskset.utilization taskset in
  search ~feasible:(feasible_scaled ~cost ~spec taskset) ~u0

let of_csd ~cost ~queues taskset =
  let n = Model.Taskset.size taskset in
  let candidates = Partition.candidates ~mode:Grid ~queues ~n in
  let last_good = ref None in
  let feasible s =
    match Model.Taskset.scale_wcets taskset s with
    | None -> false
    | Some scaled ->
      let test sizes =
        Feasibility.feasible ~cost ~spec:(Emeralds.Sched.Csd sizes) scaled
      in
      let ordered =
        match !last_good with
        | Some sizes -> sizes :: List.filter (fun c -> c <> sizes) candidates
        | None -> candidates
      in
      let rec try_all = function
        | [] -> false
        | sizes :: rest ->
          if test sizes then begin
            last_good := Some sizes;
            true
          end
          else try_all rest
      in
      try_all ordered
  in
  let u0 = Model.Taskset.utilization taskset in
  search ~feasible ~u0
