(* Two append-only tables of distinct entries, each an arena of the
   entries' bytes and an open-addressed index over it.  The index is an
   array of 32-bit slots in a byte string: 0 when empty, else the entry
   number or arena offset plus one.  It grows at three-quarters load and
   the arena by half again; a grown index rehashes its entries from the
   arena, so no hash is stored. *)
type table = {
  mutable slots : Bytes.t;  (** a power of two of 32-bit slots *)
  mutable count : int;
  mutable data : Bytes.t;
  mutable used : int;
  mutable next : int;  (** where the varint {!get_uint} read last ends *)
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let get b i = Int32.to_int (get32 b (4 * i)) land 0xffff_ffff
let set b i v = set32 b (4 * i) (Int32.of_int v)
let words32 n = Bytes.make (4 * n) '\000'
let size b = Bytes.length b / 4

let table () =
  { slots = words32 16; count = 0; data = Bytes.create 256; used = 0; next = 0 }

let full c = 4 * c.count > 3 * size c.slots

let reserve c n =
  let len = Bytes.length c.data in
  if c.used + n > len then begin
    if c.used + n >= 0xffff_ffff then
      failwith "Mc.Visited: over 4 GiB of states in one search";
    let data = Bytes.create (len + (len / 2) + n) in
    Bytes.blit c.data 0 data 0 c.used;
    c.data <- data
  end

(* The first free slot from [i] on. *)
let rec free slots i =
  if get slots i = 0 then i else free slots ((i + 1) land (size slots - 1))

let finish h =
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 32)

let mix h k = (h lxor k) * 0x100000001b3

(* Bytes are hashed and compared eight at a time, then one by one. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let hash_bytes b off len =
  let h = ref len and i = ref off and stop = off + len in
  while !i + 8 <= stop do
    h := mix !h (Int64.to_int (get64 b !i));
    i := !i + 8
  done;
  while !i < stop do
    h := mix !h (Char.code (Bytes.unsafe_get b !i));
    incr i
  done;
  finish !h

let rec same a i b j n =
  if n >= 8 then get64 a i = get64 b j && same a (i + 8) b (j + 8) (n - 8)
  else
    n = 0
    || Bytes.unsafe_get a i = Bytes.unsafe_get b j
       && same a (i + 1) b (j + 1) (n - 1)

(* Index vectors are written as unsigned LEB128 varints.  All of one
   machine's vectors have the same number of elements, so an entry
   needs no length: equal leading elements mean equal vectors. *)
let put_uint c n =
  let z = ref n in
  while !z land lnot 0x7f <> 0 do
    Bytes.unsafe_set c.data c.used (Char.unsafe_chr ((!z land 0x7f) lor 0x80));
    c.used <- c.used + 1;
    z := !z lsr 7
  done;
  Bytes.unsafe_set c.data c.used (Char.unsafe_chr !z);
  c.used <- c.used + 1

(* The varint at [pos], or-ed into [acc] from bit [shift]; [c.next] is
   set to the position after it. *)
let rec get_uint c pos acc shift =
  let x = Char.code (Bytes.unsafe_get c.data pos) in
  let acc = acc lor ((x land 0x7f) lsl shift) in
  if x < 0x80 then begin
    c.next <- pos + 1;
    acc
  end
  else get_uint c (pos + 1) acc (shift + 7)

type vec = int array

type t = {
  m : Machine.t;
  w : State.writer;
  comps : table;  (** interned components; the index is the entry number *)
  mutable starts : Bytes.t;
      (** 32-bit offsets: component [e]'s bytes run from start [e] up
          to start [e + 1] *)
  vecs : table;  (** index vectors; a slot holds the entry's offset *)
  cur : vec;  (** the vector being built *)
}

let root = [||]

let create (m : Machine.t) =
  {
    m;
    w = State.writer ();
    comps = table ();
    starts = words32 16;
    vecs = table ();
    cur = Array.make (Machine.n_tasks m + 3) 0;
  }

let length v = v.vecs.count

(* --- components -------------------------------------------------- *)

let rehash_comps v =
  let c = v.comps in
  let slots = words32 (2 * size c.slots) in
  for e = 0 to c.count - 1 do
    let off = get v.starts e in
    let h = hash_bytes c.data off (get v.starts (e + 1) - off) in
    set slots (free slots (h land (size slots - 1))) (e + 1)
  done;
  c.slots <- slots

let add_comp v i b len =
  let c = v.comps in
  let e = c.count in
  reserve c len;
  Bytes.blit b 0 c.data c.used len;
  c.used <- c.used + len;
  if e + 2 > size v.starts then begin
    let starts = words32 (2 * size v.starts) in
    Bytes.blit v.starts 0 starts 0 (4 * (e + 1));
    v.starts <- starts
  end;
  set v.starts (e + 1) c.used;
  set c.slots i (e + 1);
  c.count <- e + 1;
  if full c then rehash_comps v;
  e

(* Probing is written as top-level functions of their arguments: a
   local closure would be allocated on every lookup. *)
let rec find_comp v i b len =
  let c = v.comps in
  let s = get c.slots i in
  if s = 0 then add_comp v i b len
  else
    let off = get v.starts (s - 1) in
    if get v.starts s - off = len && same c.data off b 0 len then s - 1
    else find_comp v ((i + 1) land (size c.slots - 1)) b len

(* The index of the component just written to [v.w], interning it if
   it is new. *)
let intern v =
  let b = State.written v.w and len = State.length v.w in
  find_comp v (hash_bytes b 0 len land (size v.comps.slots - 1)) b len

(* --- vectors ----------------------------------------------------- *)

let hash_vec (cur : vec) =
  let h = ref (Array.length cur) in
  for k = 0 to Array.length cur - 1 do
    h := mix !h (Array.unsafe_get cur k)
  done;
  finish !h

(* The vector stored at [pos] equals [cur] from element [k] on. *)
let rec vec_at c pos (cur : vec) k =
  k = Array.length cur
  || get_uint c pos 0 0 = Array.unsafe_get cur k
     && vec_at c c.next cur (k + 1)

let rehash_vecs v =
  let c = v.vecs in
  let slots = words32 (2 * size c.slots) in
  let n = Array.length v.cur and pos = ref 0 in
  while !pos < c.used do
    let off = !pos and h = ref n in
    for _ = 1 to n do
      h := mix !h (get_uint c !pos 0 0);
      pos := c.next
    done;
    set slots (free slots (finish !h land (size slots - 1))) (off + 1)
  done;
  c.slots <- slots

let rec find_vec v i =
  let c = v.vecs and cur = v.cur in
  let s = get c.slots i in
  if s = 0 then begin
    let off = c.used in
    reserve c (9 * Array.length cur);
    for k = 0 to Array.length cur - 1 do
      put_uint c cur.(k)
    done;
    set c.slots i (off + 1);
    c.count <- c.count + 1;
    if full c then rehash_vecs v;
    true
  end
  else if vec_at c (s - 1) cur 0 then false
  else find_vec v ((i + 1) land (size c.slots - 1))

(* Look [v.cur] up; insert it if it is new.  True when it was new. *)
let insert v = find_vec v (hash_vec v.cur land (size v.vecs.slots - 1))

(* --- building a state's vector ------------------------------------ *)

let rec same_from (a : int array) (b : int array) i =
  i < 0
  || (Array.unsafe_get a i = Array.unsafe_get b i && same_from a b (i - 1))

let same_ints a b = same_from a b (Array.length a - 1)

(* Fill [v.cur] with [st]'s vector: its residue, one index per task,
   the object arrays' and the IRQ slots'.  A task keeps its parent's
   index when its record is the parent's own, under the same
   hyperperiod base, and its bytes read nothing else: no mid-read
   snapshot, no unresolved window clamped to the clock. *)
let fill v ~(parent : State.t) ~(pvec : vec) (st : State.t) =
  let m = v.m and w = v.w and cur = v.cur in
  let n = Array.length st.tasks in
  let r = State.residue m st in
  let base = st.now - r in
  let has_parent = Array.length pvec > 0 in
  let same_base = has_parent && parent.now - pvec.(0) = base in
  cur.(0) <- r;
  for i = 0 to n - 1 do
    let t = st.tasks.(i) in
    if
      same_base && t == parent.tasks.(i) && t.read_sm < 0
      && match t.next_rel with Choose _ -> false | At _ | Never -> true
    then cur.(i + 1) <- pvec.(i + 1)
    else begin
      State.reset w;
      State.write_task w m st ~base t;
      cur.(i + 1) <- intern v
    end
  done;
  if
    has_parent
    && same_ints st.sem_holder parent.sem_holder
    && same_ints st.wq_sig parent.wq_sig
    && same_ints st.mb_occ parent.mb_occ
    && same_ints st.pool_occ parent.pool_occ
  then cur.(n + 1) <- pvec.(n + 1)
  else begin
    State.reset w;
    State.write_objects w st;
    cur.(n + 1) <- intern v
  end;
  State.reset w;
  State.write_irqs w st ~base;
  cur.(n + 2) <- intern v

let visit v ~parent ~pvec st =
  fill v ~parent ~pvec st;
  if insert v then Some (Array.copy v.cur) else None

let vector v ~parent ~pvec st =
  fill v ~parent ~pvec st;
  Array.copy v.cur
