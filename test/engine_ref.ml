(* Reference engine for test_sim: [Sim.Engine] over the generic
   [Util.Pqueue], as it was before the engine got its own queue. Every
   event is wrapped in a heap handle and ordered by a (time, seq)
   comparison closure, and there is no front slot.  It has
   [Sim.Engine]'s interface, so test_sim's differential drives both
   with one script and compares firing logs, return values, exceptions,
   [pending] and [now]. *)

type event = { time : Model.Time.t; seq : int; fn : unit -> unit }

type handle = event Util.Pqueue.handle

type t = {
  queue : event Util.Pqueue.t;
  mutable clock : Model.Time.t;
  mutable next_seq : int;
}

let compare_events a b =
  match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c

let create () =
  { queue = Util.Pqueue.create ~cmp:compare_events (); clock = 0; next_seq = 0 }

let now t = t.clock

let schedule t ~at fn =
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  let ev = { time = at; seq = t.next_seq; fn } in
  t.next_seq <- t.next_seq + 1;
  Util.Pqueue.add t.queue ev

(* Instant [i + 1] is queued when instant [i] fires, under the number
   reserved for it: its key (t(i+1), first+i+1) sorts after instant
   [i]'s, so it cannot be the minimum while instant [i] is queued, and
   it is in the heap before the next pop. *)
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
    ignore (Util.Pqueue.add t.queue { time; seq = first + i; fn })
  in
  if count > 0 then begin
    queue 0;
    t.next_seq <- first + count
  end

let schedule_after t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(Model.Time.add t.clock delay) fn

let cancel t h =
  ignore t;
  Util.Pqueue.remove t.queue h

let pending t = Util.Pqueue.size t.queue

let step t =
  match Util.Pqueue.pop t.queue with
  | None -> false
  | Some ev ->
    t.clock <- ev.time;
    ev.fn ();
    true

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match Util.Pqueue.peek t.queue with
    | Some ev when ev.time <= horizon -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  t.clock <- Model.Time.max t.clock horizon

let run_bounded t ~max_events =
  if max_events < 0 then invalid_arg "Engine.run_bounded: negative budget";
  let fired = ref 0 in
  while !fired < max_events && step t do incr fired done;
  Util.Pqueue.is_empty t.queue
