open Types

type t = instr list

let compute c = Compute c
let acquire s = Acquire s
let release s = Release s
let wait wq = Wait wq
let timed_wait wq d = Timed_wait (wq, d)
let signal wq = Signal wq
let broadcast wq = Broadcast wq
let send mb data = Send (mb, data)
let recv mb = Recv mb
let state_write sm data = State_write (sm, data)
let state_read sm = State_read sm
let delay d = Delay d
let alloc p = Alloc p
let free p = Free p

let if_input then_ else_ = If_input (then_, else_)

let repeat n body =
  if n < 0 then invalid_arg "Program.repeat: negative count";
  Repeat (n, body)

let critical s c = [ Acquire s; Compute c; Release s ]

let condition_wait cond mutex = [ Release mutex; Wait cond; Acquire mutex ]

let rec is_blocking = function
  | Acquire _ | Wait _ | Timed_wait _ | Recv _ | Send _ | Delay _ -> true
  | Compute _ | Release _ | Signal _ | Broadcast _ | State_write _
  | State_read _ | Alloc _ | Free _ | Br_input _ | Jump _ ->
    false
  | If_input (a, b) -> List.exists is_blocking a || List.exists is_blocking b
  | Repeat (n, body) -> n > 0 && List.exists is_blocking body

(* Visit every leaf (effect) instruction, descending into branch arms
   and loop bodies without unrolling: each body is visited once. *)
let rec iter_leaves f p =
  List.iter
    (function
      | If_input (a, b) ->
        iter_leaves f a;
        iter_leaves f b
      | Repeat (_, body) -> iter_leaves f body
      | i -> f i)
    p

let rec worst_path f p =
  List.fold_left
    (fun acc i ->
      acc
      +
      match i with
      | If_input (a, b) -> max (worst_path f a) (worst_path f b)
      | Repeat (n, body) -> n * worst_path f body
      | i -> f i)
    0 p

(* Lowering.  [If_input (a, b)] becomes

     Br_input L_else; <a>; Jump L_end; L_else: <b>; L_end:

   and [Repeat (n, body)] is unrolled n times, so the flattened array
   is a forward-only DAG (every target is greater than the pc holding
   it).  That preserves the kernel's pc mechanics — blocking calls
   resume at pc+1, hints index by pc — and lets every flow analysis
   run as a single forward pass in pc order. *)
let flat_limit = 65_536

let flatten (p : t) : instr array =
  let code = ref (Array.make 16 (Compute 0)) in
  let n = ref 0 in
  let emit i =
    if !n >= flat_limit then
      invalid_arg "Program.flatten: flattened program exceeds 65536 instructions";
    if !n = Array.length !code then begin
      let bigger = Array.make (2 * !n) (Compute 0) in
      Array.blit !code 0 bigger 0 !n;
      code := bigger
    end;
    !code.(!n) <- i;
    incr n
  in
  let rec go = function
    | If_input (a, b) ->
      let br = !n in
      emit (Br_input (-1));
      List.iter go a;
      let jmp = !n in
      emit (Jump (-1));
      !code.(br) <- Br_input !n;
      List.iter go b;
      !code.(jmp) <- Jump !n
    | Repeat (k, body) ->
      if k < 0 then invalid_arg "Program.flatten: negative repeat count";
      for _ = 1 to k do
        List.iter go body
      done
    | (Br_input _ | Jump _) ->
      invalid_arg "Program.flatten: source program is already lowered"
    | i -> emit i
  in
  List.iter go p;
  Array.sub !code 0 !n

let has_branches code =
  Array.exists (function Br_input _ -> true | _ -> false) code

(* The code parser (§6.2.1), now over the lowered CFG: the hint at a
   blocking call is the semaphore of the next blocking instruction —
   but only when *every* path from that call agrees both on reaching an
   acquire first and on which semaphore it takes.  Paths are decided by
   job input data, so any disagreement degrades the hint to [None]
   rather than guessing; a wrong hint would park the thread in the
   wrong approach queue.  Flat code is a forward-only DAG, so one
   backward pass resolves the analysis. *)
let derive_hints code =
  let n = Array.length code in
  (* nb.(pc): the first blocking call every path from pc reaches.
     [`End] = job completes without blocking; [`Sem s] = all paths hit
     [Acquire s] first; [`Other] = some path blocks on something else,
     or paths disagree. *)
  let nb = Array.make (n + 1) `End in
  let join a b =
    match (a, b) with
    | `End, `End -> `End
    | `Sem s1, `Sem s2 when s1 == s2 -> `Sem s1
    | _ -> `Other
  in
  for pc = n - 1 downto 0 do
    nb.(pc) <-
      (match code.(pc) with
      | Acquire s -> `Sem s
      | Jump t -> nb.(t)
      | Br_input t -> join nb.(pc + 1) nb.(t)
      | instr when is_blocking instr -> `Other
      | _ -> nb.(pc + 1))
  done;
  Array.mapi
    (fun i instr ->
      if is_blocking instr then
        match instr with
        | Acquire _ -> None (* the acquire itself needs no hint *)
        | _ -> ( match nb.(i + 1) with `Sem s -> Some s | _ -> None)
      else None)
    code

let words n = Array.make n 0
