(* Circular doubly-linked list with a sentinel node.  The sentinel's
   [v] is [None]; every real node carries [Some v].  A node belongs to
   the list it was made in for life, so [owner] (that list's sentinel)
   is fixed and only [in_list] changes: together they guard against
   double-removal and power [mem], with no write barrier on a link. *)

type 'a node = {
  v : 'a option;
  mutable prev : 'a node;
  mutable next : 'a node;
  owner : 'a node;
  mutable in_list : bool;
}

type 'a t = { sentinel : 'a node; mutable len : int }

let create () =
  let rec s = { v = None; prev = s; next = s; owner = s; in_list = false } in
  { sentinel = s; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let value n =
  match n.v with
  | Some v -> v
  | None -> invalid_arg "Dlist.value: sentinel"

(* Link [n] between [before] and [before.next]. *)
let link_after t before n =
  n.prev <- before;
  n.next <- before.next;
  before.next.prev <- n;
  before.next <- n;
  n.in_list <- true;
  t.len <- t.len + 1

let mem t n = n.in_list && n.owner == t.sentinel

let unlink t n =
  assert (mem t n);
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.in_list <- false;
  t.len <- t.len - 1

let make_node t v =
  let rec n =
    { v = Some v; prev = n; next = n; owner = t.sentinel; in_list = false }
  in
  n

let push_front t v =
  let n = make_node t v in
  link_after t t.sentinel n;
  n

let push_back t v =
  let n = make_node t v in
  link_after t t.sentinel.prev n;
  n

let insert_before t anchor v =
  assert (mem t anchor);
  let n = make_node t v in
  link_after t anchor.prev n;
  n

let remove t n = unlink t n

let swap t a b =
  assert (a != b);
  assert (mem t a && mem t b);
  if a.next == b then begin
    unlink t a;
    link_after t b a
  end
  else if b.next == a then begin
    unlink t b;
    link_after t a b
  end
  else begin
    let pa = a.prev and pb = b.prev in
    unlink t a;
    unlink t b;
    link_after t pa b;
    link_after t pb a
  end

let first t = if t.len = 0 then None else Some t.sentinel.next
let last t = if t.len = 0 then None else Some t.sentinel.prev

let next t n =
  assert (mem t n);
  if n.next == t.sentinel then None else Some n.next

let prev t n =
  assert (mem t n);
  if n.prev == t.sentinel then None else Some n.prev

let iter_nodes f t =
  let rec loop n =
    if n != t.sentinel then begin
      let nxt = n.next in
      f n;
      loop nxt
    end
  in
  loop t.sentinel.next

let iter f t = iter_nodes (fun n -> f (value n)) t

let fold f acc t =
  let acc = ref acc in
  iter (fun v -> acc := f !acc v) t;
  !acc

let exists p t =
  let rec loop n =
    if n == t.sentinel then false else p (value n) || loop n.next
  in
  loop t.sentinel.next

let find_node p t =
  let rec loop n =
    if n == t.sentinel then None
    else if p (value n) then Some n
    else loop n.next
  in
  loop t.sentinel.next

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

let check t =
  let count = ref 0 in
  let rec loop n =
    if n != t.sentinel then begin
      assert (mem t n);
      assert (n.prev.next == n && n.next.prev == n);
      incr count;
      loop n.next
    end
  in
  loop t.sentinel.next;
  assert (!count = t.len)
