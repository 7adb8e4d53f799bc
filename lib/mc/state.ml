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
  sem_val : int array;
  sem_holder : int array;
  wq_sig : int array;
  mb_occ : int array;
  sm_seq : int array;
  pool_occ : int array;
  irq_next : nr array;
}

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
    sem_val = Array.copy m.sem_initial;
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

(* Collected in ascending index order, so a stable sort on the key
   alone yields the [(key, idx)] order. *)
let blocked_on pred m st =
  let out = ref [] in
  for i = Array.length st.tasks - 1 downto 0 do
    if pred st.tasks.(i).mode then out := i :: !out
  done;
  match !out with
  | ([] | [ _ ]) as l -> l
  | l ->
    List.stable_sort
      (fun a b -> Int.compare (dispatch_key m st a) (dispatch_key m st b))
      l

let sem_waiters m st s = blocked_on (function BSem x -> x = s | _ -> false) m st

let wq_waiters m st w =
  blocked_on (function BWait x | BTimed (x, _) -> x = w | _ -> false) m st

let mb_senders m st b = blocked_on (function BSend x -> x = b | _ -> false) m st

let mb_receivers m st b =
  blocked_on (function BRecv x -> x = b | _ -> false) m st

(* Canonical encoding.  All absolute instants become offsets from
   [now]; the clock survives only as its residue modulo the
   hyperperiod; state-message sequence numbers survive only as the
   per-reader write delta (capped at the depth — beyond that the read
   is torn either way), since nothing else about an unbounded counter
   affects the future.  Job release times are dropped entirely: they
   feed only the response-time notes.

   The canonical fields are written straight into one buffer, in a
   fixed order: a tag byte for each variant (followed by only the
   fields that variant carries), a length before each list, and every
   int as a zigzag LEB128 varint.  For one machine the array lengths
   are fixed, so this code is prefix-free: two keys are equal exactly
   when the canonical values are.  The task index needs no field — the
   position carries it. *)

let rel_t now t = if t = max_int then max_int else t - now

(* A scratch byte buffer and its cursor.  Each tag or varint first
   makes room for its longest form (a varint of a 63-bit int is at most
   9 bytes), so its bytes are then written unchecked. *)
type writer = { mutable buf : Bytes.t; mutable pos : int }

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

let add_nr b now = function
  | At t ->
    add_tag b 0;
    add_int b (t - now)
  | Never -> add_tag b 1
  | Choose (lo, hi) ->
    add_tag b 2;
    add_int b (Int.max lo now - now);
    add_int b (Int.max hi now - now)

let add_mode b now = function
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
    add_int b (t - now)
  | BDelay t ->
    add_tag b 6;
    add_int b (t - now)
  | BSend x ->
    add_tag b 7;
    add_int b x
  | BRecv x ->
    add_tag b 8;
    add_int b x

let add_task b (m : Machine.t) st (t : tstate) =
  let now = st.now in
  add_mode b now t.mode;
  add_int b t.pc;
  add_int b t.rem;
  add_int b (rel_t now t.dl);
  add_int b (rel_t now t.effdl);
  add_int b t.eff;
  add_tag b (Bool.to_int t.inh);
  add_len b t.held;
  add_ints b ~off:0 t.held;
  add_nr b now t.next_rel;
  add_len b t.pending;
  add_ints b ~off:now t.pending;
  add_int b (rel_t now t.dl_check);
  add_int b t.read_sm;
  add_int b
    (if t.read_sm < 0 then -1
     else Int.min (st.sm_seq.(t.read_sm) - t.read_seq) m.sm_depth.(t.read_sm));
  add_len b t.live;
  add_pairs b t.live

(* One scratch buffer per domain, so the key string is the only
   allocation. *)
let scratch = Domain.DLS.new_key (fun () -> { buf = Bytes.create 256; pos = 0 })

let key (m : Machine.t) st =
  let b = Domain.DLS.get scratch in
  b.pos <- 0;
  add_int b (st.now mod m.hyperperiod);
  for i = 0 to Array.length st.tasks - 1 do
    add_task b m st st.tasks.(i)
  done;
  add_array b st.sem_val;
  add_array b st.sem_holder;
  add_array b st.wq_sig;
  add_array b st.mb_occ;
  add_array b st.pool_occ;
  for k = 0 to Array.length st.irq_next - 1 do
    add_nr b st.now st.irq_next.(k)
  done;
  Bytes.sub_string b.buf 0 b.pos
