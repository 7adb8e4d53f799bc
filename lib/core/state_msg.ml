type t = {
  sm_id : int;
  depth : int;
  words : int;
  slots : int array array;
  slot_stamp : int array;
      (* sequence number that claimed each slot; claimed at Writer.start
         so an in-progress overwrite is visible to readers *)
  mutable published : int;
}

(* Every slot zeroed and sequence 0 pre-published as the all-zero
   value; the other slots carry stamps no sequence ever claims. *)
let restart t =
  for i = 0 to t.depth - 1 do
    Array.fill t.slots.(i) 0 t.words 0;
    t.slot_stamp.(i) <- (if i = 0 then 0 else i - t.depth)
  done;
  t.published <- 0

let create ~depth ~words =
  if depth < 2 then invalid_arg "State_msg.create: depth must be >= 2";
  if words < 1 then invalid_arg "State_msg.create: words must be >= 1";
  let ids = Ids.get () in
  ids.state <- ids.state + 1;
  let t =
    {
      sm_id = ids.state;
      depth;
      words;
      slots = Array.init depth (fun _ -> Array.make words 0);
      slot_stamp = Array.make depth 0;
      published = 0;
    }
  in
  restart t;
  t

let id t = t.sm_id
let depth t = t.depth
let words t = t.words
let seq t = t.published

let required_depth ~max_read_time ~min_write_interval =
  if max_read_time <= 0 || min_write_interval <= 0 then
    invalid_arg "State_msg.required_depth: times must be positive";
  Util.Intmath.ceil_div max_read_time min_write_interval + 2

module Writer = struct
  type cursor = { sm : t; value : int array; wseq : int; mutable widx : int }

  let start sm value =
    if Array.length value <> sm.words then
      invalid_arg "State_msg.Writer.start: size mismatch";
    let wseq = sm.published + 1 in
    let slot = wseq mod sm.depth in
    sm.slot_stamp.(slot) <- wseq;
    { sm; value = Array.copy value; wseq; widx = 0 }

  let step c =
    if c.widx >= c.sm.words then false
    else begin
      let slot = c.wseq mod c.sm.depth in
      c.sm.slots.(slot).(c.widx) <- c.value.(c.widx);
      c.widx <- c.widx + 1;
      c.widx < c.sm.words
    end

  let finish c =
    if c.widx <> c.sm.words then
      invalid_arg "State_msg.Writer.finish: copy incomplete";
    c.sm.published <- c.wseq
end

module Reader = struct
  type cursor = {
    sm : t;
    rseq : int;
    buf : int array;
    mutable ridx : int;
  }

  let start sm =
    { sm; rseq = sm.published; buf = Array.make sm.words 0; ridx = 0 }

  let step c =
    if c.ridx >= c.sm.words then false
    else begin
      let slot = c.rseq mod c.sm.depth in
      c.buf.(c.ridx) <- c.sm.slots.(slot).(c.ridx);
      c.ridx <- c.ridx + 1;
      c.ridx < c.sm.words
    end

  let finish c =
    let slot = c.rseq mod c.sm.depth in
    if c.sm.slot_stamp.(slot) = c.rseq then Some c.buf else None
end

let write t value =
  let c = Writer.start t value in
  while Writer.step c do
    ()
  done;
  Writer.finish c

let read t =
  let c = Reader.start t in
  while Reader.step c do
    ()
  done;
  match Reader.finish c with
  | Some v -> v
  | None ->
    (* Impossible without interleaving: [read] runs to completion with
       no intervening write. *)
    assert false
