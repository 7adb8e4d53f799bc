(* One probe serves a whole search and keeps only working arrays
   between states: the state and its scope are arguments of every
   check.
   [cycle] is shared by [deadlock] and [pi] and found at most once per
   state; a found cycle is [path.(cyc_from .. len - 1)].  [e] and [d]
   accumulate the PI fixpoint.  [at] is the running check's index in
   the compiled table.  The stamp arrays hold, per object, the [epoch]
   of the last pass that saw a task blocked on it; [stamped] says the
   running check made that pass. *)
type cycle = Unknown | Acyclic | Cyclic

type probe = {
  m : Machine.t;
  mutable was_cyclic : bool;  (* the scope's [cyclic] as the probe began *)
  mutable cycle : cycle;
  path : int array;  (* the blocked-on walk, one slot per task *)
  mutable len : int;
  mutable cyc_from : int;
  mutable e : int;
  mutable d : int;
  mutable at : int;
  mutable stamped : bool;
  mutable epoch : int;
  sem_waited : int array;
  mb_sending : int array;
  mb_receiving : int array;
}

type kind = Deadlock | Pi | Runners | Objects | Progress | Pools
type check = { kind : kind; reads : State.parts }

type t = {
  name : string;
  doc : string;
  timing_sensitive : bool;
  on_state : check list;
  on_note : Machine.t -> at:int -> State.note -> string option;
}

let no_note _ ~at:_ _ = None

(* Raised by [fail] with the first violated condition's message, which
   is formatted only then. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise_notrace (Failed msg)) fmt

(* What the cycle search and the inheritance fixpoint read. *)
let blocking = State.(modes lor sems)

(* --- deadlock -------------------------------------------------------- *)

(* Each task blocks on at most one semaphore and a mutex has at most
   one holder, so the blocked-on graph is functional: walking it from
   a task either terminates or closes a cycle. *)
let[@inline] holder (st : State.t) i =
  match st.tasks.(i).mode with State.BSem s -> st.sem_holder.(s) | _ -> -1

let rec index_of (a : int array) x i len =
  if i >= len then -1 else if a.(i) = x then i else index_of a x (i + 1) len

(* The path holds distinct tasks, so it ends or closes before it
   outgrows its one slot per task. *)
let rec follow p st =
  match holder st p.path.(p.len - 1) with
  | -1 -> false
  | h ->
    let j = index_of p.path h 0 p.len in
    if j >= 0 then begin
      p.cyc_from <- j;
      true
    end
    else begin
      p.path.(p.len) <- h;
      p.len <- p.len + 1;
      follow p st
    end

let walk p st i =
  p.path.(0) <- i;
  p.len <- 1;
  follow p st

(* The first circular wait walking from each task of [set] in index
   order; from every task ([-1]), the first of the state.  A circular
   wait that a state without one gains closes over a new edge, and a
   walk from either end of an edge on a cycle goes round it.  A new
   edge leaves a written task blocked on a semaphore or ends at the
   holder of a written semaphore. *)
let rec from_tasks p (st : State.t) set i =
  let n = Array.length st.tasks in
  let i = State.next set n i in
  i < n && ((holder st i <> -1 && walk p st i) || from_tasks p st set (i + 1))

let rec from_holders p (st : State.t) set s =
  let n = Array.length st.sem_holder in
  let s = State.next set n s in
  s < n
  && (let h = st.sem_holder.(s) in
      (h >= 0 && walk p st h) || from_holders p st set (s + 1))

(* Whether the state has a circular wait: found at most once per state,
   and recorded in the scope for the next probe.  Asked only when a
   blocking part changed; otherwise the answer is the last probe's. *)
let has_cycle p st (sc : State.scope) =
  match p.cycle with
  | Cyclic -> true
  | Acyclic -> false
  | Unknown ->
    let found =
      if p.was_cyclic then from_tasks p st (-1) 0
      else from_tasks p st sc.task_set 0 || from_holders p st sc.sem_set 0
    in
    p.cycle <- (if found then Cyclic else Acyclic);
    sc.cyclic <- found;
    found

let check_deadlock p st sc =
  if has_cycle p st sc then begin
    (* the cycle the full scan meets first, the one the message names *)
    ignore (from_tasks p st (-1) 0);
    (* the cycle's tasks only, last walked first *)
    let names =
      List.init (p.len - p.cyc_from) (fun k ->
          p.m.tasks.(p.path.(p.len - 1 - k)).task_name)
    in
    fail "circular wait: %s" (String.concat " -> " names)
  end

let deadlock =
  {
    name = "deadlock";
    doc = "no circular wait among semaphore holders";
    timing_sensitive = false;
    on_state = [ { kind = Deadlock; reads = blocking } ];
    on_note = no_note;
  }

(* --- priority inheritance ------------------------------------------- *)

(* Task [i]'s fixpoint is the minimum rank and deadline over [i] and
   every task transitively blocked on a semaphore [i] holds.  Called
   only on states without a circular wait, so the walk terminates. *)
let rec pi_visit p (st : State.t) i =
  let t = st.tasks.(i) in
  if i < p.e then p.e <- i;
  if t.dl < p.d then p.d <- t.dl;
  pi_visit_held p st i t.held

and pi_visit_held p st i = function
  | [] -> ()
  | s :: rest ->
    if st.sem_holder.(s) = i then
      for w = 0 to Array.length st.tasks - 1 do
        match st.tasks.(w).mode with
        | State.BSem x when x = s -> pi_visit p st w
        | _ -> ()
      done;
    pi_visit_held p st i rest

let check_fixpoint p (st : State.t) i =
  let t = st.tasks.(i) in
  p.e <- max_int;
  p.d <- max_int;
  pi_visit p st i;
  if t.eff <> p.e || t.effdl <> p.d then
    fail
      "%s: effective (rank %d, deadline %d) but inheritance fixpoint gives \
       (rank %d, deadline %d)"
      p.m.tasks.(i).task_name t.eff t.effdl p.e p.d

(* A task that holds nothing is its own fixpoint. *)
let pi_task p (st : State.t) i =
  let t = st.tasks.(i) in
  match (t.mode, t.held) with
  | State.Idle, _ -> ()
  | _, [] -> if t.eff <> i || t.effdl <> t.dl then check_fixpoint p st i
  | _ -> check_fixpoint p st i

let rec names_any set = function
  | [] -> false
  | s :: rest -> State.mem set s || names_any set rest

(* [acc] with the tasks from [i] on whose held lists name a semaphore
   of [set]: whatever held one before still lists it unless written. *)
let rec listing (st : State.t) set acc i =
  if i >= Array.length st.tasks then acc
  else
    listing st set
      (if names_any set st.tasks.(i).held then acc lor State.bit i else acc)
      (i + 1)

(* [closed] with task [i] and every task up its blocked-on chain: the
   tasks whose fixpoint takes in [i]'s. *)
let rec climb (st : State.t) closed i =
  let b = State.bit i in
  if closed land b = b then closed
  else
    let closed = closed lor b in
    match st.tasks.(i).mode with
    | State.BSem s when st.sem_holder.(s) >= 0 ->
      climb st closed st.sem_holder.(s)
    | _ -> closed

let rec climb_from (st : State.t) base closed i =
  let n = Array.length st.tasks in
  let i = State.next base n i in
  if i >= n then closed else climb_from st base (climb st closed i) (i + 1)

(* A task's fixpoint reads its own record, the holders of the
   semaphores it lists as held, and the records of the tasks blocked
   below it.  So after a passing probe it can move only for a written
   task, a task whose held list names a written semaphore, or a task
   up the blocked-on chain of either.  A state with a circular wait
   passes [pi] unchecked, so after one every task is checked. *)
let pi_scope p st (sc : State.scope) =
  if p.was_cyclic || sc.task_set < 0 then -1
  else
    let base =
      if sc.sem_set = 0 then sc.task_set
      else listing st sc.sem_set sc.task_set 0
    in
    climb_from st base 0 0

let check_pi p (st : State.t) sc =
  (* the fixpoint is undefined on a circular wait; the deadlock prop
     owns those *)
  if not (has_cycle p st sc) then begin
    let n = Array.length st.tasks and set = pi_scope p st sc in
    let i = ref (State.next set n 0) in
    while !i < n do
      pi_task p st !i;
      i := State.next set n (!i + 1)
    done
  end

let pi =
  {
    name = "pi";
    doc = "effective priorities equal the inheritance fixpoint";
    timing_sensitive = false;
    on_state = [ { kind = Pi; reads = blocking } ];
    on_note = no_note;
  }

(* --- structural invariants ------------------------------------------ *)

(* A second runner needs a task that was written into [Run]. *)
let rec runs (st : State.t) set i =
  let n = Array.length st.tasks in
  let i = State.next set n i in
  i < n
  && ((match st.tasks.(i).mode with State.Run -> true | _ -> false)
     || runs st set (i + 1))

let check_runners _ (st : State.t) (sc : State.scope) =
  if runs st sc.task_set 0 then begin
    let runners = ref 0 in
    for i = 0 to Array.length st.tasks - 1 do
      match st.tasks.(i).mode with State.Run -> incr runners | _ -> ()
    done;
    if !runners > 1 then fail "%d tasks running at once" !runners
  end

(* Once per check, one pass over the tasks stamps every object a task
   is blocked on with a fresh epoch. *)
let stamp_waiters p (st : State.t) =
  if not p.stamped then begin
    p.stamped <- true;
    p.epoch <- p.epoch + 1;
    let e = p.epoch in
    for i = 0 to Array.length st.tasks - 1 do
      match st.tasks.(i).mode with
      | State.BSem s -> p.sem_waited.(s) <- e
      | State.BSend b -> p.mb_sending.(b) <- e
      | State.BRecv b -> p.mb_receiving.(b) <- e
      | _ -> ()
    done
  end

(* [set] with the semaphores from [s] on that a task of [tasks] holds:
   a semaphore's conditions read its holder's record. *)
let rec held_by (st : State.t) tasks set s =
  if s >= Array.length st.sem_holder then set
  else
    let h = st.sem_holder.(s) in
    held_by st tasks
      (if h >= 0 && State.mem tasks h then set lor State.bit s else set)
      (s + 1)

let check_sem p (st : State.t) s =
  let m = p.m in
  match st.sem_holder.(s) with
  | -1 ->
    stamp_waiters p st;
    if p.sem_waited.(s) = p.epoch then
      fail "sem %d free yet has waiters" m.sem_ids.(s)
  | h -> (
    let ht = st.tasks.(h) in
    if not (List.mem s ht.held) then
      fail "sem %d holder %s does not list it as held" m.sem_ids.(s)
        m.tasks.(h).task_name;
    match ht.mode with
    | State.BSem x when x = s ->
      fail "sem %d holder %s blocked on its own sem" m.sem_ids.(s)
        m.tasks.(h).task_name
    | _ -> ())

let check_mailbox p (st : State.t) b =
  let m = p.m in
  let occ = st.mb_occ.(b) and cap = m.mb_cap.(b) in
  if occ < 0 || occ > cap then
    fail "mailbox %d occupancy %d outside [0,%d]" m.mb_ids.(b) occ cap;
  stamp_waiters p st;
  if occ <> cap && p.mb_sending.(b) = p.epoch then
    fail "mailbox %d has blocked senders yet %d/%d slots" m.mb_ids.(b) occ
      cap;
  if occ <> 0 && p.mb_receiving.(b) = p.epoch then
    fail "mailbox %d has blocked receivers yet occupancy %d" m.mb_ids.(b)
      occ

(* Semaphores, then mailboxes, then wait queues, each in index order
   and each visited only when it, or what its conditions read, was
   written; the waiters come from one pass, made when first needed. *)
let check_objects p (st : State.t) (sc : State.scope) =
  p.stamped <- false;
  let ns = Array.length st.sem_holder in
  let sems =
    if sc.task_set = 0 then sc.sem_set else held_by st sc.task_set sc.sem_set 0
  in
  let s = ref (State.next sems ns 0) in
  while !s < ns do
    check_sem p st !s;
    s := State.next sems ns (!s + 1)
  done;
  let nb = Array.length st.mb_occ in
  let b = ref (State.next sc.mb_set nb 0) in
  while !b < nb do
    check_mailbox p st !b;
    b := State.next sc.mb_set nb (!b + 1)
  done;
  let nw = Array.length st.wq_sig in
  let w = ref (State.next sc.wq_set nw 0) in
  while !w < nw do
    if st.wq_sig.(!w) < 0 then
      fail "wait queue %d pending count %d" p.m.wq_ids.(!w) st.wq_sig.(!w);
    w := State.next sc.wq_set nw (!w + 1)
  done

let fail_progress p (st : State.t) i =
  let t = st.tasks.(i) and mt = p.m.tasks.(i) in
  let len = Array.length mt.code in
  if t.pc < 0 || t.pc > len then
    fail "%s pc %d outside [0,%d]" mt.task_name t.pc len;
  fail "%s negative remaining burst" mt.task_name

let check_progress p (st : State.t) (sc : State.scope) =
  let n = Array.length st.tasks and set = sc.task_set in
  let i = ref (State.next set n 0) in
  while !i < n do
    let t = st.tasks.(!i) in
    if t.pc < 0 || t.pc > Array.length p.m.tasks.(!i).code || t.rem < 0 then
      fail_progress p st !i;
    i := State.next set n (!i + 1)
  done

let invariants =
  {
    name = "invariants";
    doc = "structural kernel-state invariants hold everywhere";
    timing_sensitive = false;
    on_state =
      State.
        [
          { kind = Runners; reads = switch };
          { kind = Objects; reads = modes lor sems lor mailboxes lor waitqs };
          { kind = Progress; reads = progress };
        ];
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
    on_state = [];
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

(* Each written pool in index order. *)
let check_pools p (st : State.t) (sc : State.scope) =
  let m = p.m and np = Array.length st.pool_occ and set = sc.pool_set in
  let k = ref (State.next set np 0) in
  while !k < np do
    let pool = !k in
    let occ = st.pool_occ.(pool) in
    if occ < 0 || occ > m.pool_cap.(pool) then
      fail "pool %d occupancy %d outside [0,%d]" m.pool_ids.(pool) occ
        m.pool_cap.(pool);
    let owned = ref 0 in
    for i = 0 to Array.length st.tasks - 1 do
      owned := !owned + blocks_of pool st.tasks.(i).live
    done;
    if !owned <> occ then
      fail "pool %d: tasks hold %d block(s) yet occupancy is %d"
        m.pool_ids.(pool) !owned occ;
    k := State.next set np (pool + 1)
  done

let mem =
  {
    name = "mem";
    doc = "block pools never over-commit, deny, or leak";
    timing_sensitive = false;
    on_state = [ { kind = Pools; reads = State.(pools lor live) } ];
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
    on_state = [];
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

let run_check p st sc = function
  | Deadlock -> check_deadlock p st sc
  | Pi -> check_pi p st sc
  | Runners -> check_runners p st sc
  | Objects -> check_objects p st sc
  | Progress -> check_progress p st sc
  | Pools -> check_pools p st sc

(* The properties' state checks in order, compiled once into a table:
   a probe runs, in table order, the rows that read a written part,
   each a direct call, and the first [Failed] names its row's
   property. *)
let check_changed props (m : Machine.t) =
  let table =
    Array.of_list
      (List.concat_map
         (fun prop -> List.map (fun c -> (prop.name, c)) prop.on_state)
         props)
  in
  let kinds = Array.map (fun (_, c) -> c.kind) table
  and reads = Array.map (fun (_, c) -> c.reads) table in
  let p =
    {
      m;
      was_cyclic = false;
      cycle = Unknown;
      path = Array.make (Machine.n_tasks m) 0;
      len = 0;
      cyc_from = 0;
      e = 0;
      d = 0;
      at = 0;
      stamped = false;
      epoch = 0;
      sem_waited = Array.make (Array.length m.sem_ids) 0;
      mb_sending = Array.make (Array.length m.mb_ids) 0;
      mb_receiving = Array.make (Array.length m.mb_ids) 0;
    }
  in
  fun ~(changed : State.scope) st ->
    p.was_cyclic <- changed.cyclic;
    p.cycle <- Unknown;
    match
      for k = 0 to Array.length kinds - 1 do
        if reads.(k) land changed.parts <> 0 then begin
          p.at <- k;
          run_check p st changed kinds.(k)
        end
      done
    with
    | () -> None
    | exception Failed msg -> Some (fst table.(p.at), msg)

let check_state props m =
  let check = check_changed props m and changed = State.everything () in
  fun st ->
    changed.cyclic <- false;
    check ~changed st

let rec first_note_failure m ~at n = function
  | [] -> None
  | prop :: rest -> (
    match prop.on_note m ~at n with
    | Some msg -> Some (prop.name, msg)
    | None -> first_note_failure m ~at n rest)

let check_note props m ~at n = first_note_failure m ~at n props
