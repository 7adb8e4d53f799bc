(* The queue is specialised to events: each record carries its own
   place, so a handle is the event itself.  [pos] is its index in
   [heap], [in_front] while it sits in the front slot, [gone] once it
   fired or was cancelled. *)
type event = {
  time : Model.Time.t;
  seq : int;
  fn : unit -> unit;
  mutable pos : int;
}

type handle = event

let in_front = -1
let gone = -2

(* Fills every vacated slot, so nothing fired or cancelled stays
   reachable from the queue; never queued, never written.  Its key sorts
   after every event's. *)
let dummy = { time = max_int; seq = max_int; fn = ignore; pos = gone }

(* [front] is [dummy] or one event earlier than everything in
   [heap.(0 .. len - 1)], a binary min-heap on (time, seq). *)
type t = {
  mutable front : event;
  mutable heap : event array;
  mutable len : int;
  mutable clock : Model.Time.t;
  mutable next_seq : int;
}

(* Every key is unique: [seq] is never reused within an engine. *)
let[@inline] before a b =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

let create () =
  { front = dummy; heap = Array.make 16 dummy; len = 0; clock = 0;
    next_seq = 0 }

let now t = t.clock

let place heap i ev =
  heap.(i) <- ev;
  ev.pos <- i

(* Move the hole at [i] towards the root until [ev] fits in it. *)
let rec sift_up heap i ev =
  if i = 0 then place heap 0 ev
  else begin
    let p = (i - 1) / 2 in
    let pe = heap.(p) in
    if before ev pe then begin
      place heap i pe;
      sift_up heap p ev
    end
    else place heap i ev
  end

(* Move the hole at [i] towards the leaves until [ev] fits in it. *)
let rec sift_down heap len i ev =
  let l = (2 * i) + 1 in
  if l >= len then place heap i ev
  else begin
    let c = if l + 1 < len && before heap.(l + 1) heap.(l) then l + 1 else l in
    let ce = heap.(c) in
    if before ce ev then begin
      place heap i ce;
      sift_down heap len c ev
    end
    else place heap i ev
  end

let heap_add t ev =
  if t.len = Array.length t.heap then begin
    let heap = Array.make (2 * t.len) dummy in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  t.len <- t.len + 1;
  sift_up t.heap (t.len - 1) ev

(* Fill the hole at [i] with the last entry. *)
let heap_remove t i =
  let heap = t.heap in
  t.len <- t.len - 1;
  let last = heap.(t.len) in
  heap.(t.len) <- dummy;
  if i < t.len then
    if i > 0 && before last heap.((i - 1) / 2) then sift_up heap i last
    else sift_down heap t.len i last

(* The earliest event, or [dummy]. *)
let[@inline] peek t =
  if t.front != dummy || t.len = 0 then t.front else t.heap.(0)

(* An event earlier than everything queued takes the front slot; a
   front it displaces goes into the heap. *)
let push t ev =
  if before ev (peek t) then begin
    if t.front != dummy then heap_add t t.front;
    ev.pos <- in_front;
    t.front <- ev
  end
  else heap_add t ev

(* Take the earliest event out of the queue; [dummy] when it is empty. *)
let pop t =
  let ev = peek t in
  if ev != dummy then begin
    if ev == t.front then t.front <- dummy else heap_remove t 0;
    ev.pos <- gone
  end;
  ev

let schedule t ~at fn =
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  let ev = { time = at; seq = t.next_seq; fn; pos = gone } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  ev

(* Instant [i + 1] is queued when instant [i] fires, under the number
   reserved for it: its key (t(i+1), first+i+1) sorts after instant
   [i]'s, so it cannot be the minimum while instant [i] is queued, and
   it is queued before the next pop. *)
let schedule_series t ~count ~at fn =
  if count < 0 then invalid_arg "Engine.schedule_series: negative count";
  let first = t.next_seq in
  let rec queue i =
    let time = at i in
    if time < t.clock then
      invalid_arg "Engine.schedule_series: event in the past";
    let fn =
      if i + 1 < count then (fun () -> queue (i + 1); fn ()) else fn
    in
    push t { time; seq = first + i; fn; pos = gone }
  in
  if count > 0 then begin
    queue 0;
    t.next_seq <- first + count
  end

let schedule_after t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(Model.Time.add t.clock delay) fn

let cancel t ev =
  if ev.pos = gone then false
  else begin
    if ev.pos = in_front then t.front <- dummy else heap_remove t ev.pos;
    ev.pos <- gone;
    true
  end

let pending t = if t.front != dummy then t.len + 1 else t.len

let step t =
  let ev = pop t in
  if ev == dummy then false
  else begin
    t.clock <- ev.time;
    ev.fn ();
    true
  end

let run_until t horizon =
  while
    let ev = peek t in
    ev != dummy && ev.time <= horizon
  do
    ignore (step t)
  done;
  t.clock <- Model.Time.max t.clock horizon

let run_bounded t ~max_events =
  if max_events < 0 then invalid_arg "Engine.run_bounded: negative budget";
  let fired = ref 0 in
  while !fired < max_events && step t do incr fired done;
  pending t = 0
