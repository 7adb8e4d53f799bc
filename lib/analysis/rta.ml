(* Fixpoint iterations before the search gives up: unschedulable. *)
let limit = 10_000

let response_time ?blocking ~tasks i =
  let _, deadline, wcet = tasks.(i) in
  let b = match blocking with None -> 0 | Some terms -> terms.(i) in
  let base = wcet + b in
  let rec iterate r steps =
    if steps > limit then None
    else begin
      let interference = ref 0 in
      for j = 0 to i - 1 do
        let period_j, _, wcet_j = tasks.(j) in
        interference := !interference + (Util.Intmath.ceil_div r period_j * wcet_j)
      done;
      let r' = base + !interference in
      if r' > deadline then None
      else if r' = r then Some r
      else iterate r' (steps + 1)
    end
  in
  iterate base 0

type decomposition = {
  dec_response : int;
  dec_own : int;
  dec_blocking : int;
  dec_interference : int array;
}

(* The fixpoint satisfies R* = C + B + sum_j ceil(R*/T_j) C_j, so the
   per-term split is exact by construction: re-evaluating the
   interference sum at R* recovers the terms the iteration folded
   together.  [response_time] stays the single source of truth for the
   fixpoint itself. *)
let decompose ?blocking ~tasks i =
  match response_time ?blocking ~tasks i with
  | None -> None
  | Some r ->
    let _, _, wcet = tasks.(i) in
    let b = match blocking with None -> 0 | Some terms -> terms.(i) in
    let interference =
      Array.init i (fun j ->
          let period_j, _, wcet_j = tasks.(j) in
          Util.Intmath.ceil_div r period_j * wcet_j)
    in
    Some
      {
        dec_response = r;
        dec_own = wcet;
        dec_blocking = b;
        dec_interference = interference;
      }

let feasible_prefix ?blocking tasks ~upto =
  let rec loop i =
    i >= upto
    ||
    match response_time ?blocking ~tasks i with
    | Some _ -> loop (i + 1)
    | None -> false
  in
  loop 0

let feasible ?blocking tasks =
  feasible_prefix ?blocking tasks ~upto:(Array.length tasks)
