let implicit_deadlines rows =
  Array.for_all (fun (p, d, _) -> d >= p) rows

let utilization rows =
  Array.fold_left
    (fun acc (p, _, c) -> acc +. (float_of_int c /. float_of_int p))
    0.0 rows

let edf_feasible rows =
  if implicit_deadlines rows then utilization rows <= 1.0 +. 1e-12
  else Demand.feasible ~own:rows ~interference:[||] ()

let csd_feasible sizes rows =
  let n = Array.length rows in
  let dp_lens, fp_len = Overhead.layout sizes n in
  let fp_start = n - fp_len in
  (* FP tasks: response-time analysis; interference comes from every
     shorter-period task regardless of its queue. *)
  let fp_ok =
    let rec loop i =
      i >= n
      ||
      match Rta.response_time ~tasks:rows i with
      | Some _ -> loop (i + 1)
      | None -> false
    in
    loop fp_start
  in
  fp_ok
  &&
  (* Each DP queue: EDF inside, preempted by all higher queues. *)
  let rec check_queue q start = function
    | [] -> true
    | len :: rest ->
      let own = Array.sub rows start len in
      let interference =
        Array.map (fun (p, _, c) -> (p, c)) (Array.sub rows 0 start)
      in
      Demand.feasible ~own ~interference ()
      && check_queue (q + 1) (start + len) rest
  in
  check_queue 0 0 dp_lens

let feasible_rows ~spec rows =
  match (spec : Emeralds.Sched.spec) with
  | Edf -> edf_feasible rows
  | Rm | Rm_heap -> Rta.feasible rows
  | Csd sizes -> csd_feasible sizes rows

let feasible ~cost ~spec taskset =
  feasible_rows ~spec (Overhead.inflate ~cost ~spec taskset)
