type 'a handle = { v : 'a; mutable pos : int }
(* pos = -1 once the element has left the heap. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable arr : 'a handle array;
  mutable len : int;
  mutable visits : int;
}

let create ~cmp () = { cmp; arr = [||]; len = 0; visits = 0 }

let size t = t.len
let is_empty t = t.len = 0
let value h = h.v
let in_heap h = h.pos >= 0
let visit_count t = t.visits

let grow t =
  let cap = max 8 (2 * Array.length t.arr) in
  let dummy = t.arr.(0) in
  let arr = Array.make cap dummy in
  Array.blit t.arr 0 arr 0 t.len;
  t.arr <- arr

let set t i h =
  t.arr.(i) <- h;
  h.pos <- i;
  t.visits <- t.visits + 1

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.arr.(i).v t.arr.(parent).v < 0 then begin
      let a = t.arr.(i) and b = t.arr.(parent) in
      set t i b;
      set t parent a;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.cmp t.arr.(l).v t.arr.(!smallest).v < 0 then smallest := l;
  if r < t.len && t.cmp t.arr.(r).v t.arr.(!smallest).v < 0 then smallest := r;
  if !smallest <> i then begin
    let a = t.arr.(i) and b = t.arr.(!smallest) in
    set t i b;
    set t !smallest a;
    sift_down t !smallest
  end

let add t v =
  let h = { v; pos = -1 } in
  if t.len = Array.length t.arr then
    if t.len = 0 then t.arr <- Array.make 8 h else grow t;
  set t t.len h;
  t.len <- t.len + 1;
  sift_up t (t.len - 1);
  h

let peek t = if t.len = 0 then None else Some t.arr.(0).v

let remove_at t i =
  let h = t.arr.(i) in
  h.pos <- -1;
  t.len <- t.len - 1;
  if i <> t.len then begin
    set t i t.arr.(t.len);
    sift_down t i;
    sift_up t i
  end;
  h.v

let pop t = if t.len = 0 then None else Some (remove_at t 0)

let remove t h =
  if h.pos < 0 then false
  else begin
    ignore (remove_at t h.pos);
    true
  end

let check t =
  for i = 0 to t.len - 1 do
    assert (t.arr.(i).pos = i);
    if i > 0 then assert (t.cmp t.arr.((i - 1) / 2).v t.arr.(i).v <= 0)
  done
