(* Reference state checks for test_mc: the state half of [Mc.Props] in
   its direct form — a lazily found circular wait per probed state,
   walked with lists, and iterator-based scans over the state's arrays.
   [check_state names m st] is the first property of [names], in order,
   that fails on [st], as [(name, message)]: what [Mc.Props.check_state]
   must return for the properties of those names. *)

open Mc

exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise_notrace (Failed msg)) fmt

(* The first circular wait, as the task indices on the cycle, last
   walked first. *)
let find_cycle (st : State.t) =
  let n = Array.length st.tasks in
  let holder i =
    match st.tasks.(i).mode with State.BSem s -> st.sem_holder.(s) | _ -> -1
  in
  let rec from h = function
    | [] -> []
    | x :: tl as l -> if x = h then l else from h tl
  in
  let rec follow seen i steps =
    if steps > n then None
    else
      match holder i with
      | -1 -> None
      | h ->
        if List.mem h seen then Some (List.rev (from h seen))
        else follow (seen @ [ h ]) h (steps + 1)
  in
  let rec scan i =
    if i >= n then None
    else if holder i = -1 then scan (i + 1)
    else match follow [ i ] i 0 with Some c -> Some c | None -> scan (i + 1)
  in
  scan 0

let pi_state (m : Machine.t) (st : State.t) =
  let n = Array.length st.tasks in
  let e = ref max_int and d = ref max_int in
  let rec visit i =
    let t = st.tasks.(i) in
    if i < !e then e := i;
    if t.dl < !d then d := t.dl;
    List.iter
      (fun s ->
        if st.sem_holder.(s) = i then
          for w = 0 to n - 1 do
            match st.tasks.(w).mode with
            | State.BSem x when x = s -> visit w
            | _ -> ()
          done)
      t.held
  in
  let rec scan i =
    if i >= n then None
    else
      let t = st.tasks.(i) in
      match t.mode with
      | State.Idle -> scan (i + 1)
      | _ ->
        e := max_int;
        d := max_int;
        visit i;
        if t.eff <> !e || t.effdl <> !d then
          Some
            (Printf.sprintf
               "%s: effective (rank %d, deadline %d) but inheritance \
                fixpoint gives (rank %d, deadline %d)"
               m.tasks.(i).task_name t.eff t.effdl !e !d)
        else scan (i + 1)
  in
  scan 0

let blocked (st : State.t) pred =
  Array.exists (fun (t : State.tstate) -> pred t.mode) st.tasks

let check_invariants (m : Machine.t) (st : State.t) =
  let runners =
    Array.fold_left
      (fun n (t : State.tstate) ->
        match t.mode with State.Run -> n + 1 | _ -> n)
      0 st.tasks
  in
  if runners > 1 then fail "%d tasks running at once" runners;
  for s = 0 to Array.length st.sem_holder - 1 do
    match st.sem_holder.(s) with
    | -1 ->
      if blocked st (function State.BSem x -> x = s | _ -> false) then
        fail "sem %d free yet has waiters" m.sem_ids.(s)
    | h ->
      let ht = st.tasks.(h) in
      if not (List.mem s ht.held) then
        fail "sem %d holder %s does not list it as held" m.sem_ids.(s)
          m.tasks.(h).task_name;
      (match ht.mode with
      | State.BSem x when x = s ->
        fail "sem %d holder %s blocked on its own sem" m.sem_ids.(s)
          m.tasks.(h).task_name
      | _ -> ())
  done;
  for b = 0 to Array.length st.mb_occ - 1 do
    let occ = st.mb_occ.(b) and cap = m.mb_cap.(b) in
    if occ < 0 || occ > cap then
      fail "mailbox %d occupancy %d outside [0,%d]" m.mb_ids.(b) occ cap;
    if occ <> cap && blocked st (function State.BSend x -> x = b | _ -> false)
    then
      fail "mailbox %d has blocked senders yet %d/%d slots" m.mb_ids.(b) occ
        cap;
    if occ <> 0 && blocked st (function State.BRecv x -> x = b | _ -> false)
    then
      fail "mailbox %d has blocked receivers yet occupancy %d" m.mb_ids.(b)
        occ
  done;
  Array.iteri
    (fun w n ->
      if n < 0 then fail "wait queue %d pending count %d" m.wq_ids.(w) n)
    st.wq_sig;
  Array.iteri
    (fun i (t : State.tstate) ->
      let len = Array.length m.tasks.(i).code in
      if t.pc < 0 || t.pc > len then
        fail "%s pc %d outside [0,%d]" m.tasks.(i).task_name t.pc len;
      if t.rem < 0 then
        fail "%s negative remaining burst" m.tasks.(i).task_name)
    st.tasks

let check_pools (m : Machine.t) (st : State.t) =
  for p = 0 to Array.length st.pool_occ - 1 do
    let occ = st.pool_occ.(p) in
    if occ < 0 || occ > m.pool_cap.(p) then
      fail "pool %d occupancy %d outside [0,%d]" m.pool_ids.(p) occ
        m.pool_cap.(p);
    let owned =
      Array.fold_left
        (fun acc (t : State.tstate) ->
          acc + Option.value ~default:0 (List.assoc_opt p t.live))
        0 st.tasks
    in
    if owned <> occ then
      fail "pool %d: tasks hold %d block(s) yet occupancy is %d"
        m.pool_ids.(p) owned occ
  done

let raises f = match f () with () -> None | exception Failed msg -> Some msg

let on_state name (m : Machine.t) st cycle =
  match name with
  | "deadlock" ->
    Option.map
      (fun c ->
        Printf.sprintf "circular wait: %s"
          (String.concat " -> " (List.map (fun i -> m.tasks.(i).task_name) c)))
      (Lazy.force cycle)
  | "pi" -> (
    match Lazy.force cycle with Some _ -> None | None -> pi_state m st)
  | "invariants" -> raises (fun () -> check_invariants m st)
  | "mem" -> raises (fun () -> check_pools m st)
  | "tear" | "deadline" -> None (* notes only *)
  | name -> invalid_arg ("Props_ref: unknown property " ^ name)

let check_state names m st =
  let cycle = lazy (find_cycle st) in
  List.find_map
    (fun name -> Option.map (fun msg -> (name, msg)) (on_state name m st cycle))
    names
