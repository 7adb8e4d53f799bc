type bound = Fin of int | Inf

type t = { lo : int; hi : bound }

let zero = { lo = 0; hi = Fin 0 }

let const c =
  let c = max 0 c in
  { lo = c; hi = Fin c }

let range lo hi =
  if hi < lo then invalid_arg "Itv.range: hi < lo";
  { lo = max 0 lo; hi = Fin (max 0 hi) }

let unbounded_from lo = { lo = max 0 lo; hi = Inf }

let add_bound a b =
  match (a, b) with Fin x, Fin y -> Fin (x + y) | _ -> Inf

let max_bound a b =
  match (a, b) with Fin x, Fin y -> Fin (max x y) | _ -> Inf

let add a b = { lo = a.lo + b.lo; hi = add_bound a.hi b.hi }

let join a b = { lo = min a.lo b.lo; hi = max_bound a.hi b.hi }

let scale n itv =
  if n < 0 then invalid_arg "Itv.scale: negative factor";
  {
    lo = n * itv.lo;
    hi = (match itv.hi with Fin h -> Fin (n * h) | Inf -> if n = 0 then Fin 0 else Inf);
  }

let diff a b =
  let lo = max 0 (a.lo - b.lo) in
  let hi =
    match (a.hi, b.hi) with
    | Fin ah, Fin bh -> Fin (max lo (ah - bh))
    | _ -> Inf
  in
  { lo; hi }

let equal a b = a.lo = b.lo && a.hi = b.hi

let widen old next =
  let lo = if next.lo < old.lo then 0 else old.lo in
  let hi =
    match (old.hi, next.hi) with
    | Fin o, Fin n when n > o -> Inf
    | _, Inf | Inf, _ -> Inf
    | hi, _ -> hi
  in
  { lo; hi }

let is_bounded itv = itv.hi <> Inf

let hi_int itv = match itv.hi with Fin h -> Some h | Inf -> None

let dominates itv n = match itv.hi with Fin h -> h >= n | Inf -> true

let to_string itv =
  match itv.hi with
  | Fin h -> Printf.sprintf "[%d, %d]" itv.lo h
  | Inf -> Printf.sprintf "[%d, inf)" itv.lo
