(* One probe serves a whole search: [check_state] rebinds [st] and
   forgets the cycle before each state.  [cycle] is shared by
   [deadlock] and [pi] and found at most once per state; a found cycle
   is [path.(cyc_from .. len - 1)].  [e] and [d] accumulate the PI
   fixpoint. *)
type cycle = Unknown | Acyclic | Cyclic

type probe = {
  mutable st : State.t;
  mutable cycle : cycle;
  path : int array;  (* the blocked-on walk, one slot per task *)
  mutable len : int;
  mutable cyc_from : int;
  mutable e : int;
  mutable d : int;
}

type check = { reads : State.parts; run : Machine.t -> probe -> string option }

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

(* A check of the probed state by a function that [fail]s. *)
let failing reads f =
  {
    reads;
    run =
      (fun m p ->
        match f m p.st with () -> None | exception Failed msg -> Some msg);
  }

(* What the cycle search and the inheritance fixpoint read. *)
let blocking = State.(modes lor sems)

(* --- deadlock -------------------------------------------------------- *)

(* Each task blocks on at most one semaphore and a mutex has at most
   one holder, so the blocked-on graph is functional: walking it from
   a task either terminates or closes a cycle. *)
let holder (st : State.t) i =
  match st.tasks.(i).mode with State.BSem s -> st.sem_holder.(s) | _ -> -1

let rec index_of (a : int array) x i len =
  if i >= len then -1 else if a.(i) = x then i else index_of a x (i + 1) len

(* The path holds distinct tasks, so it ends or closes before it
   outgrows its one slot per task. *)
let rec follow p =
  match holder p.st p.path.(p.len - 1) with
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
      follow p
    end

(* The first circular wait, walking from each blocked task in index
   order. *)
let rec scan p i =
  if i >= Array.length p.st.tasks then false
  else if holder p.st i = -1 then scan p (i + 1)
  else begin
    p.path.(0) <- i;
    p.len <- 1;
    follow p || scan p (i + 1)
  end

let has_cycle p =
  match p.cycle with
  | Cyclic -> true
  | Acyclic -> false
  | Unknown ->
    let found = scan p 0 in
    p.cycle <- (if found then Cyclic else Acyclic);
    found

let deadlock =
  {
    name = "deadlock";
    doc = "no circular wait among semaphore holders";
    timing_sensitive = false;
    on_state =
      [
        {
          reads = blocking;
          run =
            (fun m p ->
              if not (has_cycle p) then None
              else
                (* the cycle's tasks only, last walked first *)
                let names =
                  List.init (p.len - p.cyc_from) (fun k ->
                      m.tasks.(p.path.(p.len - 1 - k)).task_name)
                in
                Some
                  (Printf.sprintf "circular wait: %s"
                     (String.concat " -> " names)));
        };
      ];
    on_note = no_note;
  }

(* --- priority inheritance ------------------------------------------- *)

(* Task [i]'s fixpoint is the minimum rank and deadline over [i] and
   every task transitively blocked on a semaphore [i] holds.  Called
   only on states without a circular wait, so the walk terminates. *)
let rec pi_visit p i =
  let t = p.st.tasks.(i) in
  if i < p.e then p.e <- i;
  if t.dl < p.d then p.d <- t.dl;
  pi_visit_held p i t.held

and pi_visit_held p i = function
  | [] -> ()
  | s :: rest ->
    let st = p.st in
    if st.sem_holder.(s) = i then
      for w = 0 to Array.length st.tasks - 1 do
        match st.tasks.(w).mode with
        | State.BSem x when x = s -> pi_visit p w
        | _ -> ()
      done;
    pi_visit_held p i rest

let rec pi_scan (m : Machine.t) p i =
  if i >= Array.length p.st.tasks then None
  else
    let t = p.st.tasks.(i) in
    match t.mode with
    | State.Idle -> pi_scan m p (i + 1)
    | _ ->
      p.e <- max_int;
      p.d <- max_int;
      pi_visit p i;
      if t.eff <> p.e || t.effdl <> p.d then
        Some
          (Printf.sprintf
             "%s: effective (rank %d, deadline %d) but inheritance \
              fixpoint gives (rank %d, deadline %d)"
             m.tasks.(i).task_name t.eff t.effdl p.e p.d)
      else pi_scan m p (i + 1)

let pi =
  {
    name = "pi";
    doc = "effective priorities equal the inheritance fixpoint";
    timing_sensitive = false;
    on_state =
      [
        {
          reads = blocking;
          run =
            (fun m p ->
              (* the fixpoint is undefined on a circular wait; the
                 deadlock prop owns those *)
              if has_cycle p then None else pi_scan m p 0);
        };
      ];
    on_note = no_note;
  }

(* --- structural invariants ------------------------------------------ *)

let bsem_on s = function State.BSem x -> x = s | _ -> false
let bsend_on b = function State.BSend x -> x = b | _ -> false
let brecv_on b = function State.BRecv x -> x = b | _ -> false

(* Some task from [i] on has a mode satisfying [pred obj]. *)
let rec blocked (st : State.t) pred obj i =
  i < Array.length st.tasks
  && (pred obj st.tasks.(i).mode || blocked st pred obj (i + 1))

let check_runners (_ : Machine.t) (st : State.t) =
  let runners = ref 0 in
  for i = 0 to Array.length st.tasks - 1 do
    match st.tasks.(i).mode with State.Run -> incr runners | _ -> ()
  done;
  if !runners > 1 then fail "%d tasks running at once" !runners

let check_objects (m : Machine.t) (st : State.t) =
  for s = 0 to Array.length st.sem_holder - 1 do
    match st.sem_holder.(s) with
    | -1 ->
      if blocked st bsem_on s 0 then
        fail "sem %d free yet has waiters" m.sem_ids.(s)
    | h ->
      let ht = st.tasks.(h) in
      if not (List.mem s ht.held) then
        fail "sem %d holder %s does not list it as held" m.sem_ids.(s)
          m.tasks.(h).task_name;
      if bsem_on s ht.mode then
        fail "sem %d holder %s blocked on its own sem" m.sem_ids.(s)
          m.tasks.(h).task_name
  done;
  for b = 0 to Array.length st.mb_occ - 1 do
    let occ = st.mb_occ.(b) and cap = m.mb_cap.(b) in
    if occ < 0 || occ > cap then
      fail "mailbox %d occupancy %d outside [0,%d]" m.mb_ids.(b) occ cap;
    if occ <> cap && blocked st bsend_on b 0 then
      fail "mailbox %d has blocked senders yet %d/%d slots" m.mb_ids.(b) occ
        cap;
    if occ <> 0 && blocked st brecv_on b 0 then
      fail "mailbox %d has blocked receivers yet occupancy %d" m.mb_ids.(b)
        occ
  done;
  for w = 0 to Array.length st.wq_sig - 1 do
    if st.wq_sig.(w) < 0 then
      fail "wait queue %d pending count %d" m.wq_ids.(w) st.wq_sig.(w)
  done

let check_progress (m : Machine.t) (st : State.t) =
  for i = 0 to Array.length st.tasks - 1 do
    let t = st.tasks.(i) in
    let len = Array.length m.tasks.(i).code in
    if t.pc < 0 || t.pc > len then
      fail "%s pc %d outside [0,%d]" m.tasks.(i).task_name t.pc len;
    if t.rem < 0 then fail "%s negative remaining burst" m.tasks.(i).task_name
  done

let invariants =
  {
    name = "invariants";
    doc = "structural kernel-state invariants hold everywhere";
    timing_sensitive = false;
    on_state =
      State.
        [
          failing (modes lor switch) check_runners;
          failing (modes lor sems lor mailboxes lor waitqs) check_objects;
          failing progress check_progress;
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

let check_pools (m : Machine.t) (st : State.t) =
  for p = 0 to Array.length st.pool_occ - 1 do
    let occ = st.pool_occ.(p) in
    if occ < 0 || occ > m.pool_cap.(p) then
      fail "pool %d occupancy %d outside [0,%d]" m.pool_ids.(p) occ
        m.pool_cap.(p);
    let owned = ref 0 in
    for i = 0 to Array.length st.tasks - 1 do
      owned := !owned + blocks_of p st.tasks.(i).live
    done;
    if !owned <> occ then
      fail "pool %d: tasks hold %d block(s) yet occupancy is %d"
        m.pool_ids.(p) !owned occ
  done

let mem =
  {
    name = "mem";
    doc = "block pools never over-commit, deny, or leak";
    timing_sensitive = false;
    on_state = [ failing State.(pools lor live) check_pools ];
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

(* The first failing check, in order, among those that read a changed
   part. *)
let rec first_check m p changed = function
  | [] -> None
  | c :: rest when c.reads land changed = 0 -> first_check m p changed rest
  | c :: rest -> (
    match c.run m p with
    | None -> first_check m p changed rest
    | failed -> failed)

let rec first_state_failure m p changed = function
  | [] -> None
  | prop :: rest -> (
    match first_check m p changed prop.on_state with
    | Some msg -> Some (prop.name, msg)
    | None -> first_state_failure m p changed rest)

let empty : State.t =
  {
    now = 0;
    tasks = [||];
    sem_holder = [||];
    wq_sig = [||];
    mb_occ = [||];
    sm_seq = [||];
    pool_occ = [||];
    irq_next = [||];
  }

let check_changed props m =
  let p =
    {
      st = empty;
      cycle = Unknown;
      path = Array.make (Machine.n_tasks m) 0;
      len = 0;
      cyc_from = 0;
      e = 0;
      d = 0;
    }
  in
  fun ~changed st ->
    p.st <- st;
    p.cycle <- Unknown;
    first_state_failure m p changed props

let check_state props m =
  let check = check_changed props m in
  fun st -> check ~changed:State.all st

let rec first_note_failure m ~at n = function
  | [] -> None
  | prop :: rest -> (
    match prop.on_note m ~at n with
    | Some msg -> Some (prop.name, msg)
    | None -> first_note_failure m ~at n rest)

let check_note props m ~at n = first_note_failure m ~at n props
