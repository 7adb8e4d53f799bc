(* The scheduler queue structures of §5.1, §5.3 and §6.2.

   [Edf_queue]  — a single *unsorted* list holding blocked and unblocked
                  tasks; O(1) block/unblock, O(n) earliest-deadline scan.
   [Rm_queue]   — a list of blocked and unblocked tasks sorted by
                  effective priority, with the [highestp] pointer to the
                  first ready task; O(1) select, O(scan) block, and the
                  O(1) place-holder priority-inheritance tricks.
   [Heap_queue] — the sorted-heap alternative of Table 1 (ready tasks
                  only), kept as a measured baseline; note it cannot
                  support the place-holder trick precisely because
                  blocked tasks are not kept in the structure.

   These structures do no cost accounting themselves; they return scan
   counts, and [Sched] converts counts into charged virtual time. *)

open Types

module Edf_queue = struct
  type t = {
    list : tcb Util.Dlist.t;
    mutable ready : int; (* count of Ready/Running members *)
  }

  let create () = { list = Util.Dlist.create (); ready = 0 }
  let length t = Util.Dlist.length t.list
  let ready_count t = t.ready

  let add t tcb =
    let node = Util.Dlist.push_back t.list tcb in
    tcb.node <- Some node;
    if is_ready tcb then t.ready <- t.ready + 1

  let remove t tcb =
    match tcb.node with
    | Some node when Util.Dlist.mem t.list node ->
      Util.Dlist.remove t.list node;
      tcb.node <- None;
      if is_ready tcb then t.ready <- t.ready - 1
    | Some _ | None -> invalid_arg "Edf_queue.remove: not a member"

  (* Callers flip [tcb.state] *around* these calls; the queue only
     maintains its ready count, so it must be told the transition. *)
  let note_blocked t _tcb = t.ready <- t.ready - 1
  let note_unblocked t _tcb = t.ready <- t.ready + 1

  let select t =
    if t.ready = 0 then None
    else begin
      let best = ref None in
      let consider tcb =
        if is_ready tcb then
          match !best with
          | None -> best := Some tcb
          | Some b -> if deadline_compare tcb b < 0 then best := Some tcb
      in
      Util.Dlist.iter consider t.list;
      !best
    end

  let check t =
    Util.Dlist.check t.list;
    let ready = Util.Dlist.fold (fun n x -> if is_ready x then n + 1 else n) 0 t.list in
    assert (ready = t.ready)
end

module Rm_queue = struct
  type t = {
    list : tcb Util.Dlist.t;
    mutable highestp : tcb Util.Dlist.node option;
  }

  let create () = { list = Util.Dlist.create (); highestp = None }
  let length t = Util.Dlist.length t.list

  let node_of tcb =
    match tcb.node with
    | Some n -> n
    | None -> invalid_arg "Rm_queue: task has no queue node"

  (* Insert in priority position by scanning from the head; only used
     at attach time and by the standard (non-optimized) PI path, both of
     which are allowed to be O(n).  Returns the number of entries
     scanned. *)
  let insert_sorted t tcb =
    let scanned = ref 0 in
    let rec find node =
      match node with
      | None -> None
      | Some n ->
        incr scanned;
        if prio_compare (Util.Dlist.value n) tcb > 0 then Some n
        else find (Util.Dlist.next t.list n)
    in
    let node =
      match find (Util.Dlist.first t.list) with
      | Some anchor -> Util.Dlist.insert_before t.list anchor tcb
      | None -> Util.Dlist.push_back t.list tcb
    in
    tcb.node <- Some node;
    !scanned

  let add t tcb =
    ignore (insert_sorted t tcb);
    if is_ready tcb then
      match t.highestp with
      | None -> t.highestp <- tcb.node
      | Some h ->
        if prio_compare tcb (Util.Dlist.value h) < 0 then t.highestp <- tcb.node

  (* First ready task at or after [node]. *)
  let rec scan_ready t node scanned =
    match node with
    | None -> (None, scanned)
    | Some n ->
      let tcb = Util.Dlist.value n in
      if is_ready tcb then (Some n, scanned + 1)
      else scan_ready t (Util.Dlist.next t.list n) (scanned + 1)

  let refresh_highestp t =
    let found, scanned = scan_ready t (Util.Dlist.first t.list) 0 in
    t.highestp <- found;
    scanned

  (* The caller has just marked [tcb] blocked.  If it was the first
     ready task, advance [highestp]; otherwise O(1).  Returns entries
     scanned. *)
  let note_blocked t tcb =
    match t.highestp with
    | Some h when h == node_of tcb ->
      let found, scanned = scan_ready t (Util.Dlist.next t.list h) 0 in
      t.highestp <- found;
      scanned
    | Some _ | None -> 0

  (* The caller has just marked [tcb] ready.  O(1): compare against the
     current highest-priority ready task. *)
  let note_unblocked t tcb =
    match t.highestp with
    | None -> t.highestp <- tcb.node
    | Some h ->
      if prio_compare tcb (Util.Dlist.value h) < 0 then t.highestp <- tcb.node

  let select t =
    match t.highestp with None -> None | Some n -> Some (Util.Dlist.value n)

  (* Optimized priority inheritance (§6.2): [holder] takes [waiter]'s
     effective priority and their queue positions are exchanged, the
     waiter acting as a place-holder for the holder's original slot.
     If the holder already has a place-holder [p] (a second, higher
     waiter arrived), [p] is first sent back to its own slot.  O(1). *)
  let inherit_swap t ~holder ~waiter =
    (match holder.placeholder with
    | None ->
      Util.Dlist.swap t.list (node_of holder) (node_of waiter);
      holder.placeholder <- Some waiter
    | Some p when p == waiter -> (
      (* Transitive re-boost from the thread already serving as this
         holder's place-holder: the waiter's own priority just rose
         through a nested chain (§6.3.2), so its node sits at its
         boosted slot.  One swap moves the holder there and sends the
         waiter back to the slot the holder occupied.  The waiter's own
         place-holder — parked in the holder's original slot by the
         chain's inner swap — takes over marking the holder's home, so
         the eventual [restore_swap] returns the holder exactly
         there. *)
      Util.Dlist.swap t.list (node_of holder) (node_of waiter);
      match waiter.placeholder with
      | Some q ->
        holder.placeholder <- Some q;
        waiter.placeholder <- None
      | None -> () (* the waiter keeps marking the holder's slot *))
    | Some p ->
      (* holder sits in p's slot; waiter outranks p.  Two swaps put the
         holder in the waiter's slot and p back home (§6.2's "T2 is
         simply put back to its original position"). *)
      Util.Dlist.swap t.list (node_of holder) (node_of waiter);
      Util.Dlist.swap t.list (node_of waiter) (node_of p);
      holder.placeholder <- Some waiter);
    (* highestp fix-ups:
       - it pointed at the waiter's node (waiter was running and is
         about to block): the holder now occupies that slot — O(1)
         when the holder is ready; if the holder is itself blocked
         (it holds the lock across a wait, §6.3.2), rescan;
       - the holder (ready) may now outrank the first ready task. *)
    (match t.highestp with
    | Some h when h == node_of waiter ->
      if is_ready holder then t.highestp <- holder.node
      else ignore (refresh_highestp t)
    | Some h ->
      if is_ready holder && prio_compare holder (Util.Dlist.value h) < 0 then
        t.highestp <- holder.node
    | None -> if is_ready holder then t.highestp <- holder.node)

  (* Undo: exchange holder and its place-holder again. *)
  let restore_swap t ~holder =
    match holder.placeholder with
    | None -> ()
    | Some p ->
      let hn = node_of holder and pn = node_of p in
      Util.Dlist.swap t.list hn pn;
      holder.placeholder <- None;
      (match t.highestp with
      | Some h when h == hn || h == pn -> ignore (refresh_highestp t)
      | Some _ | None -> ())

  (* [p] leaves the list for a DP queue, and the holder [h] it stands
     in for, [h]'s own such holder and so on follow it out.  Their swaps
     and that of [p]'s place-holder [y] permuted their homes and [y]
     outranks them all, so [y] goes to the chain's first slot, whatever
     the swaps' order.  Drops the links through [p]; returns [h]. *)
  let leave t p =
    let rec chain q =
      let stands_for h = Option.fold ~none:false ~some:(( == ) q) h.placeholder in
      match Util.Dlist.find_node stands_for t.list with
      | Some n -> q :: chain (Util.Dlist.value n)
      | None -> [ q ]
    in
    let chain = chain p in
    let first = Util.Dlist.find_node (fun x -> List.memq x chain) t.list in
    (match (p.placeholder, first) with
    | Some y, Some n ->
      Util.Dlist.swap t.list (node_of y) n;
      ignore (refresh_highestp t)
    | _ -> ());
    p.placeholder <- None;
    match chain with
    | _ :: h :: _ -> h.placeholder <- None; Some h
    | _ -> None

  (* Standard priority inheritance: physically re-insert [tcb] at its
     effective-priority position.  Returns entries scanned (the paper's
     O(n - r) step). *)
  let reposition t tcb =
    Util.Dlist.remove t.list (node_of tcb);
    tcb.node <- None;
    let scanned = insert_sorted t tcb in
    let scanned = scanned + refresh_highestp t in
    scanned

  let points_at highestp n =
    match highestp with Some h -> h == n | None -> false

  let remove t tcb =
    let n = node_of tcb in
    Util.Dlist.remove t.list n;
    tcb.node <- None;
    if points_at t.highestp n then ignore (refresh_highestp t)

  let check t =
    Util.Dlist.check t.list;
    (* Ready tasks must appear in priority order (blocked place-holders
       may legitimately sit out of order, §6.2). *)
    let last_ready = ref None in
    let visit tcb =
      if is_ready tcb then begin
        (match !last_ready with
        | Some prev -> assert (prev.eff_prio <= tcb.eff_prio)
        | None ->
          (* first ready task must be what highestp points at *)
          match t.highestp with
          | Some h -> assert (Util.Dlist.value h == tcb)
          | None -> assert false);
        last_ready := Some tcb
      end
    in
    Util.Dlist.iter visit t.list;
    if !last_ready = None then assert (t.highestp = None)
end

module Heap_queue = struct
  type t = { heap : tcb Util.Pqueue.t }

  let create () = { heap = Util.Pqueue.create ~cmp:prio_compare () }
  let length t = Util.Pqueue.size t.heap
  let visits t = Util.Pqueue.visit_count t.heap

  let note_unblocked t tcb = tcb.heap_handle <- Some (Util.Pqueue.add t.heap tcb)

  let note_blocked t tcb =
    match tcb.heap_handle with
    | Some h ->
      ignore (Util.Pqueue.remove t.heap h);
      tcb.heap_handle <- None
    | None -> invalid_arg "Heap_queue.note_blocked: not queued"

  let select t = Util.Pqueue.peek t.heap

  (* Priority changed: re-key by remove/re-insert (the only option a
     heap offers — precisely why the paper's O(1) place-holder trick
     needs the list structure). *)
  let rekey t tcb =
    match tcb.heap_handle with
    | Some h ->
      ignore (Util.Pqueue.remove t.heap h);
      tcb.heap_handle <- Some (Util.Pqueue.add t.heap tcb)
    | None -> () (* blocked: will be keyed correctly on unblock *)

  let check t = Util.Pqueue.check t.heap
end
