(* [cycle] is shared by [deadlock] and [pi]: the first circular wait,
   as task indices along the chain. *)
type probe = { st : State.t; cycle : int list option Lazy.t }

type t = {
  name : string;
  doc : string;
  timing_sensitive : bool;
  on_state : Machine.t -> probe -> string option;
  on_note : Machine.t -> at:int -> State.note -> string option;
}

let no_state _ _ = None
let no_note _ ~at:_ _ = None

(* Raised by [fail] with the first violated condition's message, which
   is formatted only then. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise_notrace (Failed msg)) fmt

(* --- deadlock -------------------------------------------------------- *)

(* Follow the blocked-on chain: each task blocks on at most one
   semaphore and a mutex has at most one holder, so the graph is
   functional — walking it either terminates or closes a cycle. *)
let find_cycle (st : State.t) =
  let n = Array.length st.tasks in
  let holder i =
    match st.tasks.(i).mode with State.BSem s -> st.sem_holder.(s) | _ -> -1
  in
  let rec follow seen i steps =
    if steps > n then None
    else
      match holder i with
      | -1 -> None
      | h ->
        if List.mem h seen then Some (List.rev seen)
        else follow (seen @ [ h ]) h (steps + 1)
  in
  let rec scan i =
    if i >= n then None
    else if holder i = -1 then scan (i + 1)
    else match follow [ i ] i 0 with Some c -> Some c | None -> scan (i + 1)
  in
  scan 0

let deadlock =
  {
    name = "deadlock";
    doc = "no circular wait among semaphore holders";
    timing_sensitive = false;
    on_state =
      (fun m p ->
        match Lazy.force p.cycle with
        | None -> None
        | Some cycle ->
          let names =
            String.concat " -> "
              (List.map (fun i -> m.tasks.(i).task_name) cycle)
          in
          Some (Printf.sprintf "circular wait: %s" names));
    on_note = no_note;
  }

(* --- priority inheritance ------------------------------------------- *)

(* Task [i]'s fixpoint is the minimum rank and deadline over [i] and
   every task transitively blocked on a semaphore [i] holds.  Called
   only on states without a circular wait, so the walk terminates. *)
let pi_state (m : Machine.t) (st : State.t) =
  let n = Array.length st.tasks in
  let e = ref max_int and d = ref max_int in
  let rec visit i =
    let t = st.tasks.(i) in
    if i < !e then e := i;
    if t.dl < !d then d := t.dl;
    visit_held i t.held
  and visit_held i = function
    | [] -> ()
    | s :: rest ->
      if st.sem_holder.(s) = i then
        for w = 0 to n - 1 do
          match st.tasks.(w).mode with
          | State.BSem x when x = s -> visit w
          | _ -> ()
        done;
      visit_held i rest
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

let pi =
  {
    name = "pi";
    doc = "effective priorities equal the inheritance fixpoint";
    timing_sensitive = false;
    on_state =
      (fun m p ->
        match Lazy.force p.cycle with
        | Some _ -> None (* fixpoint undefined; the deadlock prop owns this *)
        | None -> pi_state m p.st);
    on_note = no_note;
  }

(* --- structural invariants ------------------------------------------ *)

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
  for s = 0 to Array.length st.sem_val - 1 do
    let v = st.sem_val.(s) in
    if v < 0 || v > m.sem_initial.(s) then
      fail "sem %d value %d outside [0,%d]" m.sem_ids.(s) v m.sem_initial.(s);
    if v <> 0 && blocked st (function State.BSem x -> x = s | _ -> false) then
      fail "sem %d available (value %d) yet has waiters" m.sem_ids.(s) v;
    match st.sem_holder.(s) with
    | -1 -> ()
    | h ->
      let ht = st.tasks.(h) in
      if m.sem_initial.(s) <> 1 then
        fail "counting sem %d has a tracked holder" m.sem_ids.(s);
      if v <> 0 then fail "sem %d held yet value %d" m.sem_ids.(s) v;
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

let invariants =
  {
    name = "invariants";
    doc = "structural kernel-state invariants hold everywhere";
    timing_sensitive = false;
    on_state =
      (fun m p ->
        match check_invariants m p.st with
        | () -> None
        | exception Failed msg -> Some msg);
    on_note =
      (fun _ ~at:_ -> function
        | State.Fault msg -> Some msg
        | _ -> None);
  }

(* --- tear-freedom ---------------------------------------------------- *)

let tear =
  {
    name = "tear";
    doc = "no state-message read is torn by concurrent writes";
    timing_sensitive = false;
    on_state = no_state;
    on_note =
      (fun m ~at:_ -> function
        | State.Torn { idx; sm; writes } ->
          Some
            (Printf.sprintf
               "%s read state msg %d torn: %d writes completed mid-read \
                (depth %d admits at most %d)"
               m.tasks.(idx).task_name m.sm_ids.(sm) writes m.sm_depth.(sm)
               (m.sm_depth.(sm) - 2))
        | _ -> None);
  }

(* --- memory safety ---------------------------------------------------- *)

let rec blocks_of pool = function
  | [] -> 0
  | (p, n) :: rest -> if p = pool then n else blocks_of pool rest

let check_pools (m : Machine.t) (st : State.t) =
  for p = 0 to Array.length st.pool_occ - 1 do
    let occ = st.pool_occ.(p) in
    if occ < 0 || occ > m.pool_cap.(p) then
      fail "pool %d occupancy %d outside [0,%d]" m.pool_ids.(p) occ
        m.pool_cap.(p);
    let owned =
      Array.fold_left
        (fun acc (t : State.tstate) -> acc + blocks_of p t.live)
        0 st.tasks
    in
    if owned <> occ then
      fail "pool %d: tasks hold %d block(s) yet occupancy is %d"
        m.pool_ids.(p) owned occ
  done

let mem =
  {
    name = "mem";
    doc = "block pools never over-commit, deny, or leak";
    timing_sensitive = false;
    on_state =
      (fun m p ->
        match check_pools m p.st with
        | () -> None
        | exception Failed msg -> Some msg);
    on_note =
      (fun m ~at -> function
        | State.Oom { idx; pool } ->
          Some
            (Printf.sprintf "%s denied a block of pool %d (exhausted) at %dns"
               m.tasks.(idx).task_name m.Machine.pool_ids.(pool) at)
        | State.Leak { idx; pool; count } ->
          Some
            (Printf.sprintf
               "%s leaked %d block(s) of pool %d at job end"
               m.tasks.(idx).task_name count m.Machine.pool_ids.(pool))
        | _ -> None);
  }

(* --- deadline safety -------------------------------------------------- *)

let deadline =
  {
    name = "deadline";
    doc = "no deadline miss up to the horizon";
    timing_sensitive = true;
    on_state = no_state;
    on_note =
      (fun m ~at -> function
        | State.Miss { idx } ->
          Some
            (Printf.sprintf "%s missed its deadline at %dns"
               m.tasks.(idx).task_name at)
        | _ -> None);
  }

let all = [ deadlock; pi; invariants; tear; mem; deadline ]
let names = List.map (fun p -> p.name) all
let by_name n = List.find_opt (fun p -> p.name = n) all

let check_state props m st =
  let probe = { st; cycle = lazy (find_cycle st) } in
  List.find_map
    (fun p ->
      match p.on_state m probe with Some msg -> Some (p.name, msg) | None -> None)
    props

let check_note props m ~at n =
  List.find_map
    (fun p ->
      match p.on_note m ~at n with Some msg -> Some (p.name, msg) | None -> None)
    props
