type nr = At of int | Never | Choose of int * int

type mode =
  | Idle
  | Ready
  | Run
  | BSem of int
  | BWait of int
  | BTimed of int * int
  | BDelay of int
  | BSend of int
  | BRecv of int

type tstate = {
  mode : mode;
  pc : int;
  rem : int;
  rel : int;
  dl : int;
  effdl : int;
  eff : int;
  inh : bool;
  held : int list;
  next_rel : nr;
  pending : int list;
  dl_check : int;
  read_sm : int;
  read_seq : int;
  live : (int * int) list;
      (* pool index -> blocks this job holds; sorted, no zero entries *)
  brs : int;
      (* branch outcomes consumed this job — labels replayed [Branch]
         trace entries with the kernel's input-bit index; excluded from
         the canonical key because the pc alone determines the future *)
}

type t = {
  now : int;
  tasks : tstate array;
  sem_holder : int array;
  wq_sig : int array;
  mb_occ : int array;
  sm_seq : int array;
  pool_occ : int array;
  irq_next : nr array;
}

type parts = int

let modes = 1
let switch = 2
let progress = 4
let live = 8
let sems = 16
let mailboxes = 32
let waitqs = 64
let pools = 128
let all =
  modes lor switch lor progress lor live lor sems lor mailboxes lor waitqs
  lor pools

type scope = {
  mutable parts : parts;
  mutable task_set : int;
  mutable sem_set : int;
  mutable mb_set : int;
  mutable wq_set : int;
  mutable pool_set : int;
  mutable cyclic : bool;
}

(* Index 62 would be the sign bit, so indices from 62 on share the set
   of all indices, [-1]. *)
let[@inline] bit i = if i < Sys.int_size - 1 then 1 lsl i else -1
let[@inline] mem set i = set land bit i <> 0

(* The index of a set's lowest bit: multiplying by [debruijn] moves a
   distinct 6-bit window to the top of the int for each of the 62
   powers of two below the sign bit. *)
let debruijn = 0x10c51c9669eaedf

let lowest_index =
  [|
    0; 1; 2; 7; 3; 13; 8; 19; 4; 25; 14; 28; 9; 34; 20; 40; 5; 17; 26; 38; 15;
    46; 29; 48; 10; 31; 35; 54; 21; 50; 41; 57; -1; 6; 12; 18; 24; 27; 33; 39;
    16; 37; 45; 47; 30; 53; 49; 56; 61; 11; 23; 32; 36; 44; 52; 55; 60; 22;
    43; 51; 59; 42; 58; -1;
  |]

let[@inline] next set n i =
  if set < 0 then i
  else if i >= Sys.int_size - 1 then n
  else
    let r = set lsr i in
    if r = 0 then n
    else i + Array.unsafe_get lowest_index (((r land -r) * debruijn) lsr 57)

let everything () =
  {
    parts = all;
    task_set = -1;
    sem_set = -1;
    mb_set = -1;
    wq_set = -1;
    pool_set = -1;
    cyclic = false;
  }

let copy_scope sc = { sc with parts = sc.parts }

let clear_scope sc =
  sc.parts <- 0;
  sc.task_set <- 0;
  sc.sem_set <- 0;
  sc.mb_set <- 0;
  sc.wq_set <- 0;
  sc.pool_set <- 0

type note =
  | Job_done of { idx : int; response : int }
  | Miss of { idx : int }
  | Torn of { idx : int; sm : int; writes : int }
  | Oom of { idx : int; pool : int }
  | Leak of { idx : int; pool : int; count : int }
  | Fault of string

let init (m : Machine.t) =
  let tasks =
    Array.map
      (fun (mt : Machine.mtask) ->
        let next_rel =
          match mt.release with
          | Machine.Periodic -> At mt.phase
          | Machine.Sporadic { min_ia; max_ia } ->
            (* first arrival anywhere in [phase, phase + window slack],
               or never *)
            Choose (mt.phase, mt.phase + (max_ia - min_ia))
        in
        {
          mode = Idle;
          pc = 0;
          rem = 0;
          rel = 0;
          (* the first job's deadline, so the declarative PI fixpoint
             ([Props]) holds of the initial state too *)
          dl = mt.phase + mt.deadline;
          effdl = mt.phase + mt.deadline;
          eff = mt.idx;
          inh = false;
          held = [];
          next_rel;
          pending = [];
          dl_check = max_int;
          read_sm = -1;
          read_seq = 0;
          live = [];
          brs = 0;
        })
      m.tasks
  in
  {
    now = 0;
    tasks;
    sem_holder = Array.make (Array.length m.sem_ids) (-1);
    wq_sig = Array.make (Array.length m.wq_ids) 0;
    mb_occ = Array.make (Array.length m.mb_ids) 0;
    sm_seq = Array.make (Array.length m.sm_ids) 0;
    pool_occ = Array.make (Array.length m.pool_ids) 0;
    irq_next =
      Array.map (fun (s : Machine.irq_src) -> Choose (s.min_ia, s.max_ia)) m.irqs;
  }

let dispatch_key (m : Machine.t) st i =
  let t = st.tasks.(i) in
  match m.sched with Machine.Fp -> t.eff | Machine.Edf -> t.effdl

(* The kernel's served-first key: the index is the base rank, and a
   deadline scheduler is one DP queue. *)
let blocked_on pred (m : Machine.t) st =
  let cls = match m.sched with Machine.Fp -> Emeralds.Types.Fp | Edf -> Dp 0 in
  let out = ref [] in
  for i = Array.length st.tasks - 1 downto 0 do
    let t = st.tasks.(i) in
    if pred t.mode then
      out :=
        Emeralds.Sched.served_first cls ~rank:t.eff ~deadline:t.effdl ~base:i
        :: !out
  done;
  List.map (fun (_, _, i) -> i) (List.sort compare !out)

let sem_waiters m st s = blocked_on (function BSem x -> x = s | _ -> false) m st

let wq_waiters m st w =
  blocked_on (function BWait x | BTimed (x, _) -> x = w | _ -> false) m st

let mb_senders m st b = blocked_on (function BSend x -> x = b | _ -> false) m st

let mb_receivers m st b =
  blocked_on (function BRecv x -> x = b | _ -> false) m st

(* Canonical encoding.  The clock survives only as its residue
   modulo the hyperperiod, and every absolute instant becomes an
   offset from the hyperperiod base [now - now mod H]: under equal
   residues [t - base = (t - now) + now mod H], so offsets from the
   base decide exactly what offsets from [now] would.  State-message
   sequence numbers survive only as the per-reader write delta (capped
   at the depth — beyond that the read is torn either way), since
   nothing else about an unbounded counter affects the future.  Job
   release times are dropped entirely: they feed only the
   response-time notes.

   The canonical fields are written in components — one per task, one
   for the non-IRQ object arrays, one for the IRQ slots — each in a
   fixed order: a tag byte for each variant (followed by only the
   fields that variant carries), a length before each list, and every
   int as a zigzag LEB128 varint.  For one machine the array lengths
   are fixed, so each kind of component is a prefix-free code, and so
   is the key, which is the residue followed by every component: two
   keys are equal exactly when the canonical values are.  The task
   index needs no field — the position carries it. *)

let residue (m : Machine.t) st = st.now mod m.hyperperiod

let rel_t base t = if t = max_int then max_int else t - base

(* A scratch byte buffer and its cursor.  Each tag or varint first
   makes room for its longest form (a varint of a 63-bit int is at most
   9 bytes), so its bytes are then written unchecked. *)
type writer = { mutable buf : Bytes.t; mutable pos : int }

let writer () = { buf = Bytes.create 256; pos = 0 }
let reset b = b.pos <- 0
let written b = b.buf
let length b = b.pos

let grow b =
  let buf = Bytes.create (2 * Bytes.length b.buf) in
  Bytes.blit b.buf 0 buf 0 b.pos;
  b.buf <- buf

let add_tag b k =
  if b.pos >= Bytes.length b.buf then grow b;
  Bytes.unsafe_set b.buf b.pos (Char.unsafe_chr k);
  b.pos <- b.pos + 1

let add_int b n =
  if b.pos + 9 > Bytes.length b.buf then grow b;
  let buf = b.buf and pos = ref b.pos in
  let z = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !z land lnot 0x7f <> 0 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr ((!z land 0x7f) lor 0x80));
    incr pos;
    z := !z lsr 7
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !z);
  b.pos <- !pos + 1

let add_len b l = add_int b (List.length l)

let rec add_ints b ~off = function
  | [] -> ()
  | x :: tl ->
    add_int b (x - off);
    add_ints b ~off tl

let rec add_pairs b = function
  | [] -> ()
  | (x, y) :: tl ->
    add_int b x;
    add_int b y;
    add_pairs b tl

let add_array b a =
  for i = 0 to Array.length a - 1 do
    add_int b a.(i)
  done

(* An unresolved window is clamped to [now], so it is the one field
   whose offset moves with the clock inside a hyperperiod. *)
let add_nr b ~now ~base = function
  | At t ->
    add_tag b 0;
    add_int b (t - base)
  | Never -> add_tag b 1
  | Choose (lo, hi) ->
    add_tag b 2;
    add_int b (Int.max lo now - base);
    add_int b (Int.max hi now - base)

let add_mode b base = function
  | Idle -> add_tag b 0
  | Ready -> add_tag b 1
  | Run -> add_tag b 2
  | BSem s ->
    add_tag b 3;
    add_int b s
  | BWait w ->
    add_tag b 4;
    add_int b w
  | BTimed (w, t) ->
    add_tag b 5;
    add_int b w;
    add_int b (t - base)
  | BDelay t ->
    add_tag b 6;
    add_int b (t - base)
  | BSend x ->
    add_tag b 7;
    add_int b x
  | BRecv x ->
    add_tag b 8;
    add_int b x

let write_task b (m : Machine.t) st ~base (t : tstate) =
  add_mode b base t.mode;
  add_int b t.pc;
  add_int b t.rem;
  add_int b (rel_t base t.dl);
  add_int b (rel_t base t.effdl);
  add_int b t.eff;
  add_tag b (Bool.to_int t.inh);
  add_len b t.held;
  add_ints b ~off:0 t.held;
  add_nr b ~now:st.now ~base t.next_rel;
  add_len b t.pending;
  add_ints b ~off:base t.pending;
  add_int b (rel_t base t.dl_check);
  add_int b t.read_sm;
  add_int b
    (if t.read_sm < 0 then -1
     else Int.min (st.sm_seq.(t.read_sm) - t.read_seq) m.sm_depth.(t.read_sm));
  add_len b t.live;
  add_pairs b t.live

let write_objects b st =
  add_array b st.sem_holder;
  add_array b st.wq_sig;
  add_array b st.mb_occ;
  add_array b st.pool_occ

let write_irqs b st ~base =
  for k = 0 to Array.length st.irq_next - 1 do
    add_nr b ~now:st.now ~base st.irq_next.(k)
  done

(* One scratch buffer per domain, so the key string is the only
   allocation. *)
let scratch = Domain.DLS.new_key writer

let key (m : Machine.t) st =
  let b = Domain.DLS.get scratch in
  b.pos <- 0;
  let r = residue m st in
  add_int b r;
  let base = st.now - r in
  for i = 0 to Array.length st.tasks - 1 do
    write_task b m st ~base st.tasks.(i)
  done;
  write_objects b st;
  write_irqs b st ~base;
  Bytes.sub_string b.buf 0 b.pos
