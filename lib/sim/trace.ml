(* Interned overhead categories: one tag per kernel charge site.  The
   display names reproduce the historic string categories verbatim so
   every rendered artifact (CSV, timeline, Prometheus labels) is
   unchanged by the interning. *)
type ovh_category =
  | Ovh_sched_select
  | Ovh_sched_block
  | Ovh_sched_unblock
  | Ovh_sched_demote
  | Ovh_pi
  | Ovh_sem
  | Ovh_syscall
  | Ovh_ipc
  | Ovh_timer
  | Ovh_pool
  | Ovh_switch
  | Ovh_switch_as
  | Ovh_irq

let ovh_name = function
  | Ovh_sched_select -> "sched.select"
  | Ovh_sched_block -> "sched.block"
  | Ovh_sched_unblock -> "sched.unblock"
  | Ovh_sched_demote -> "sched.demote"
  | Ovh_pi -> "pi"
  | Ovh_sem -> "sem"
  | Ovh_syscall -> "syscall"
  | Ovh_ipc -> "ipc"
  | Ovh_timer -> "timer"
  | Ovh_pool -> "pool"
  | Ovh_switch -> "switch"
  | Ovh_switch_as -> "switch.as"
  | Ovh_irq -> "irq"

let ovh_index = function
  | Ovh_sched_select -> 0
  | Ovh_sched_block -> 1
  | Ovh_sched_unblock -> 2
  | Ovh_sched_demote -> 3
  | Ovh_pi -> 4
  | Ovh_sem -> 5
  | Ovh_syscall -> 6
  | Ovh_ipc -> 7
  | Ovh_timer -> 8
  | Ovh_pool -> 9
  | Ovh_switch -> 10
  | Ovh_switch_as -> 11
  | Ovh_irq -> 12

let ovh_categories =
  [
    Ovh_sched_select; Ovh_sched_block; Ovh_sched_unblock; Ovh_sched_demote;
    Ovh_pi; Ovh_sem; Ovh_syscall; Ovh_ipc; Ovh_timer; Ovh_pool; Ovh_switch;
    Ovh_switch_as; Ovh_irq;
  ]

let ovh_count = List.length ovh_categories

type net_dir = Tx | Rx | Drop | Corrupt

let net_dir_name = function
  | Tx -> "tx"
  | Rx -> "rx"
  | Drop -> "drop"
  | Corrupt -> "corrupt"

type entry =
  | Job_release of { tid : int; job : int; deadline : Model.Time.t }
  | Job_complete of { tid : int; job : int; response : Model.Time.t }
  | Deadline_miss of { tid : int; job : int; lateness : Model.Time.t }
  | Context_switch of { from_tid : int option; to_tid : int option }
  | Thread_block of { tid : int; reason : string }
  | Thread_unblock of { tid : int }
  | Sem_acquired of { tid : int; sem : int }
  | Sem_blocked of { tid : int; sem : int }
  | Sem_released of { tid : int; sem : int }
  | Priority_inherit of { holder : int; from_tid : int }
  | Priority_restore of { holder : int }
  | Approach_parked of { tid : int; sem : int }
      (* §6.3.1: held back in [sem]'s approach queue; the semaphore is
         the attribution context the block reason alone lacks *)
  | Msg_sent of { tid : int; mailbox : int; words : int }
  | Msg_received of {
      tid : int;
      mailbox : int;
      words : int;
      queued_for : Model.Time.t;
          (* how long the message sat in the mailbox before delivery *)
    }
  | State_written of { tid : int; state : int; seq : int }
  | State_read of { tid : int; state : int; seq : int }
  | Interrupt of { irq : int }
  | Overhead of { category : ovh_category; cost : Model.Time.t }
  | Budget_overrun of {
      tid : int;
      job : int;
      used : Model.Time.t;
      budget : Model.Time.t;
    }
  | Job_killed of { tid : int; job : int }
  | Job_shed of { tid : int; job : int; reason : string }
  | Block_alloc of { tid : int; pool : int; live : int }
      (* [live] = pool-wide blocks outstanding after the grant *)
  | Block_free of { tid : int; pool : int; live : int }
  | Pool_oom of { tid : int; pool : int } (* allocation denied: exhausted *)
  | Pool_leak of { tid : int; job : int; pool : int; count : int }
      (* blocks still live when the job completed (reclaimed) *)
  | Quota_exceeded of { tid : int; job : int; live : int; quota : int }
  | Input_word of { tid : int; job : int; word : int64 }
      (* the seeded word whose bits decide the job's branches; emitted
         only for programs that contain branches *)
  | Branch of { tid : int; pc : int; idx : int; taken : bool }
      (* one Br_input decision: input bit [idx], [taken] = fell through *)
  | Net_frame of { node : int; dir : net_dir; frame_id : int; words : int }
      (* fabric: one frame event at a station; [Drop] = lost on the
         wire, [Corrupt] = CRC check failed at the receiver *)
  | Net_retry of { node : int; seq : int; attempt : int }
      (* fabric: a reliable frame was retransmitted *)
  | Net_timeout of { node : int; seq : int }
      (* fabric: a send exhausted its retry budget and was abandoned *)
  | Net_arb of { frame_id : int; delay : Model.Time.t }
      (* fabric: bus arbitration delay of one transmitted frame *)
  | Note of string

type stamped = { at : Model.Time.t; entry : entry }

(* The closed kind table: one CSV kind per constructor, four for
   [Net_frame] (one per direction).  [kind] is a tag dispatch, so a
   subscriber counts kinds by array index without rendering or hashing
   the kind string. *)
let kind_names =
  [|
    "release"; "complete"; "miss"; "switch"; "block"; "unblock"; "sem-lock";
    "sem-wait"; "sem-free"; "inherit"; "restore"; "parked"; "send"; "recv";
    "st-write"; "st-read"; "irq"; "overhead"; "overrun"; "kill"; "shed";
    "alloc"; "free"; "oom"; "leak"; "quota"; "input"; "branch"; "net-tx";
    "net-rx"; "net-drop"; "net-corrupt"; "net-retry"; "net-timeout";
    "net-arb"; "note";
  |]

let kind_count = Array.length kind_names
let kind_name i = kind_names.(i)

let kind_of_name name =
  let rec go i =
    if i = kind_count then None
    else if kind_names.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let kind = function
  | Job_release _ -> 0
  | Job_complete _ -> 1
  | Deadline_miss _ -> 2
  | Context_switch _ -> 3
  | Thread_block _ -> 4
  | Thread_unblock _ -> 5
  | Sem_acquired _ -> 6
  | Sem_blocked _ -> 7
  | Sem_released _ -> 8
  | Priority_inherit _ -> 9
  | Priority_restore _ -> 10
  | Approach_parked _ -> 11
  | Msg_sent _ -> 12
  | Msg_received _ -> 13
  | State_written _ -> 14
  | State_read _ -> 15
  | Interrupt _ -> 16
  | Overhead _ -> 17
  | Budget_overrun _ -> 18
  | Job_killed _ -> 19
  | Job_shed _ -> 20
  | Block_alloc _ -> 21
  | Block_free _ -> 22
  | Pool_oom _ -> 23
  | Pool_leak _ -> 24
  | Quota_exceeded _ -> 25
  | Input_word _ -> 26
  | Branch _ -> 27
  | Net_frame { dir = Tx; _ } -> 28
  | Net_frame { dir = Rx; _ } -> 29
  | Net_frame { dir = Drop; _ } -> 30
  | Net_frame { dir = Corrupt; _ } -> 31
  | Net_retry _ -> 32
  | Net_timeout _ -> 33
  | Net_arb _ -> 34
  | Note _ -> 35

(* The kept entries are one append-only byte log the GC never scans.
   A record is, in order:
   - the zigzag varint of its [at] minus the previous record's (the
     first one's minus 0);
   - its [kind] byte, which also carries a [Net_frame]'s direction;
   - its fields in declaration order: ints as zigzag varints, an
     [Input_word] as 8 little-endian bytes, an [ovh_category] as its
     index byte, a bool or option as a tag byte (an option's payload
     follows a 1), a string as the varint index of its first-use slot
     in the trace's string table;
   - one trailing byte holding the record's length without it, so
     [entries] can walk the log from the end and cons the list once.
   Encoding is deterministic and interning is by content, so two
   traces hold equal logs and tables exactly when their entry lists
   are equal. *)
type t = {
  keep : bool;
  mutable log : Bytes.t; (* empty until the first kept entry *)
  mutable len : int; (* bytes of [log] in use *)
  mutable count : int; (* kept entries *)
  mutable last_at : Model.Time.t; (* [at] of the last kept entry *)
  mutable strings : string array; (* interned, in first-use order *)
  mutable n_strings : int;
  mutable string_ids : (string, int) Hashtbl.t option;
      (* built once the table outgrows a linear scan *)
  mutable switches : int;
  mutable misses : int;
  mutable preemptions : int;
  mutable overhead : Model.Time.t;
  by_category : Model.Time.t array; (* indexed by [ovh_index] *)
  mutable first_miss : stamped option;
  mutable overruns : int;
  mutable kills : int;
  mutable sheds : int;
  mutable busy : Model.Time.t;
  (* [last_outgoing_ready] is set by the kernel marking whether the
     thread being switched out was still ready (a preemption). *)
  mutable last_outgoing_ready : bool;
}

let create ?(keep_entries = true) () =
  {
    keep = keep_entries;
    log = Bytes.empty;
    len = 0;
    count = 0;
    last_at = 0;
    strings = [||];
    n_strings = 0;
    string_ids = None;
    switches = 0;
    misses = 0;
    preemptions = 0;
    overhead = 0;
    by_category = Array.make ovh_count 0;
    first_miss = None;
    overruns = 0;
    kills = 0;
    sheds = 0;
    busy = 0;
    last_outgoing_ready = false;
  }

(* The aggregate counters of one event.  Builds no stamped record
   except the first miss's, so [emit] without kept entries allocates
   none. *)
let tally t ~at entry =
  match entry with
  | Context_switch _ ->
    t.switches <- t.switches + 1;
    if t.last_outgoing_ready then t.preemptions <- t.preemptions + 1
  | Deadline_miss _ ->
    t.misses <- t.misses + 1;
    if Option.is_none t.first_miss then t.first_miss <- Some { at; entry }
  | Overhead { category; cost } ->
    t.overhead <- Model.Time.add t.overhead cost;
    let i = ovh_index category in
    t.by_category.(i) <- Model.Time.add t.by_category.(i) cost
  | Budget_overrun _ -> t.overruns <- t.overruns + 1
  | Job_killed _ -> t.kills <- t.kills + 1
  | Job_shed _ -> t.sheds <- t.sheds + 1
  | Job_release _ | Job_complete _ | Thread_block _ | Thread_unblock _
  | Sem_acquired _ | Sem_blocked _ | Sem_released _ | Priority_inherit _
  | Priority_restore _ | Approach_parked _ | Msg_sent _ | Msg_received _
  | State_written _ | State_read _ | Interrupt _ | Block_alloc _
  | Block_free _ | Pool_oom _ | Pool_leak _ | Quota_exceeded _
  | Input_word _ | Branch _ | Net_frame _ | Net_retry _ | Net_timeout _
  | Net_arb _ | Note _ ->
    ()

(* -- encoding ---------------------------------------------------------- *)

(* Longest record: a 9-byte delta, the kind byte, four 9-byte ints and
   the length byte. *)
let max_record = 47

let reserve t =
  let cap = Bytes.length t.log in
  if t.len + max_record > cap then begin
    let grown = Bytes.create (max 256 (2 * cap)) in
    Bytes.blit t.log 0 grown 0 t.len;
    t.log <- grown
  end

let put_byte t b =
  Bytes.unsafe_set t.log t.len (Char.unsafe_chr b);
  t.len <- t.len + 1

(* [v] as an unsigned 63-bit LEB128 varint: at most 9 bytes. *)
let rec put_uvar t v =
  if v land lnot 0x7f = 0 then put_byte t v
  else begin
    put_byte t (v land 0x7f lor 0x80);
    put_uvar t (v lsr 7)
  end

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)
let put_int t n = put_uvar t (zigzag n)
let put_bool t b = put_byte t (Bool.to_int b)

let put_opt t = function
  | None -> put_byte t 0
  | Some n ->
    put_byte t 1;
    put_int t n

let put_word t w =
  Bytes.set_int64_le t.log t.len w;
  t.len <- t.len + 8

(* Small tables (a run's block reasons) are scanned, literals matching
   by address first; a table of many distinct notes gets a hash. *)
let scan_limit = 8

let intern t s =
  let n = t.n_strings in
  let rec by_address i =
    if i = n then by_content 0
    else if t.strings.(i) == s then i
    else by_address (i + 1)
  and by_content i =
    if i = n then -1
    else if String.equal t.strings.(i) s then i
    else by_content (i + 1)
  in
  let found =
    match t.string_ids with
    | None -> by_address 0
    | Some ids -> Option.value (Hashtbl.find_opt ids s) ~default:(-1)
  in
  if found >= 0 then found
  else begin
    if n = Array.length t.strings then begin
      let grown = Array.make (max 4 (2 * n)) "" in
      Array.blit t.strings 0 grown 0 n;
      t.strings <- grown
    end;
    t.strings.(n) <- s;
    t.n_strings <- n + 1;
    (match t.string_ids with
    | Some ids -> Hashtbl.replace ids s n
    | None when n + 1 > scan_limit ->
      let ids = Hashtbl.create (4 * scan_limit) in
      for i = 0 to n do
        Hashtbl.replace ids t.strings.(i) i
      done;
      t.string_ids <- Some ids
    | None -> ());
    n
  end

let put_string t s = put_uvar t (intern t s)

let put_fields t = function
  | Job_release { tid; job; deadline = x }
  | Job_complete { tid; job; response = x }
  | Deadline_miss { tid; job; lateness = x } ->
    put_int t tid;
    put_int t job;
    put_int t x
  | Context_switch { from_tid; to_tid } ->
    put_opt t from_tid;
    put_opt t to_tid
  | Thread_block { tid; reason } ->
    put_int t tid;
    put_string t reason
  | Thread_unblock { tid } | Priority_restore { holder = tid } ->
    put_int t tid
  | Sem_acquired { tid; sem = x }
  | Sem_blocked { tid; sem = x }
  | Sem_released { tid; sem = x }
  | Priority_inherit { holder = tid; from_tid = x }
  | Approach_parked { tid; sem = x }
  | Job_killed { tid; job = x }
  | Pool_oom { tid; pool = x }
  | Net_timeout { node = tid; seq = x }
  | Net_arb { frame_id = tid; delay = x } ->
    put_int t tid;
    put_int t x
  | Msg_sent { tid; mailbox = a; words = b }
  | State_written { tid; state = a; seq = b }
  | State_read { tid; state = a; seq = b }
  | Block_alloc { tid; pool = a; live = b }
  | Block_free { tid; pool = a; live = b }
  | Net_retry { node = tid; seq = a; attempt = b }
  | Net_frame { node = tid; frame_id = a; words = b; dir = _ } ->
    put_int t tid;
    put_int t a;
    put_int t b
  | Msg_received { tid; mailbox = a; words = b; queued_for = c }
  | Budget_overrun { tid; job = a; used = b; budget = c }
  | Pool_leak { tid; job = a; pool = b; count = c }
  | Quota_exceeded { tid; job = a; live = b; quota = c } ->
    put_int t tid;
    put_int t a;
    put_int t b;
    put_int t c
  | Interrupt { irq } -> put_int t irq
  | Overhead { category; cost } ->
    put_byte t (ovh_index category);
    put_int t cost
  | Job_shed { tid; job; reason } ->
    put_int t tid;
    put_int t job;
    put_string t reason
  | Input_word { tid; job; word } ->
    put_int t tid;
    put_int t job;
    put_word t word
  | Branch { tid; pc; idx; taken } ->
    put_int t tid;
    put_int t pc;
    put_int t idx;
    put_bool t taken
  | Note s -> put_string t s

let keep_entry t ~at entry =
  reserve t;
  let start = t.len in
  put_int t (at - t.last_at);
  put_byte t (kind entry);
  put_fields t entry;
  put_byte t (t.len - start);
  t.last_at <- at;
  t.count <- t.count + 1

let record t { at; entry } =
  tally t ~at entry;
  if t.keep then keep_entry t ~at entry

let emit t ~at entry =
  tally t ~at entry;
  if t.keep then keep_entry t ~at entry

(* -- decoding ---------------------------------------------------------- *)

(* [ints] holds the leading int fields of the record being decoded. *)
type cursor = { buf : Bytes.t; mutable pos : int; ints : int array }

let cursor t = { buf = t.log; pos = 0; ints = Array.make 4 0 }

let get_byte c =
  let b = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  b

let get_uvar c =
  let rec go acc shift =
    let b = get_byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let get_int c = unzigzag (get_uvar c)
let get_opt c = if get_byte c = 0 then None else Some (get_int c)
let get_string t c = t.strings.(get_uvar c)
let ovh_of_index = Array.of_list ovh_categories

(* How many of each kind's fields, in [put_fields] order, are plain
   ints written first. *)
let leading_ints =
  [|
    3; 3; 3; 0; 1; 1; 2; 2; 2; 2; 1; 2; 3; 4; 3; 3; 1; 0; 4; 2; 2; 3; 3; 2; 4;
    4; 2; 3; 3; 3; 3; 3; 3; 2; 2; 0;
  |]

(* One record's entry, the cursor just past its kind byte. *)
let get_entry t c kind =
  let i = c.ints in
  for k = 0 to leading_ints.(kind) - 1 do
    i.(k) <- get_int c
  done;
  match kind with
  | 0 -> Job_release { tid = i.(0); job = i.(1); deadline = i.(2) }
  | 1 -> Job_complete { tid = i.(0); job = i.(1); response = i.(2) }
  | 2 -> Deadline_miss { tid = i.(0); job = i.(1); lateness = i.(2) }
  | 3 ->
    let from_tid = get_opt c in
    Context_switch { from_tid; to_tid = get_opt c }
  | 4 -> Thread_block { tid = i.(0); reason = get_string t c }
  | 5 -> Thread_unblock { tid = i.(0) }
  | 6 -> Sem_acquired { tid = i.(0); sem = i.(1) }
  | 7 -> Sem_blocked { tid = i.(0); sem = i.(1) }
  | 8 -> Sem_released { tid = i.(0); sem = i.(1) }
  | 9 -> Priority_inherit { holder = i.(0); from_tid = i.(1) }
  | 10 -> Priority_restore { holder = i.(0) }
  | 11 -> Approach_parked { tid = i.(0); sem = i.(1) }
  | 12 -> Msg_sent { tid = i.(0); mailbox = i.(1); words = i.(2) }
  | 13 ->
    Msg_received
      { tid = i.(0); mailbox = i.(1); words = i.(2); queued_for = i.(3) }
  | 14 -> State_written { tid = i.(0); state = i.(1); seq = i.(2) }
  | 15 -> State_read { tid = i.(0); state = i.(1); seq = i.(2) }
  | 16 -> Interrupt { irq = i.(0) }
  | 17 ->
    let category = ovh_of_index.(get_byte c) in
    Overhead { category; cost = get_int c }
  | 18 ->
    Budget_overrun { tid = i.(0); job = i.(1); used = i.(2); budget = i.(3) }
  | 19 -> Job_killed { tid = i.(0); job = i.(1) }
  | 20 -> Job_shed { tid = i.(0); job = i.(1); reason = get_string t c }
  | 21 -> Block_alloc { tid = i.(0); pool = i.(1); live = i.(2) }
  | 22 -> Block_free { tid = i.(0); pool = i.(1); live = i.(2) }
  | 23 -> Pool_oom { tid = i.(0); pool = i.(1) }
  | 24 -> Pool_leak { tid = i.(0); job = i.(1); pool = i.(2); count = i.(3) }
  | 25 ->
    Quota_exceeded { tid = i.(0); job = i.(1); live = i.(2); quota = i.(3) }
  | 26 ->
    let word = Bytes.get_int64_le c.buf c.pos in
    c.pos <- c.pos + 8;
    Input_word { tid = i.(0); job = i.(1); word }
  | 27 ->
    Branch { tid = i.(0); pc = i.(1); idx = i.(2); taken = get_byte c = 1 }
  | 28 | 29 | 30 | 31 ->
    let dir = match kind with 28 -> Tx | 29 -> Rx | 30 -> Drop | _ -> Corrupt in
    Net_frame { node = i.(0); dir; frame_id = i.(1); words = i.(2) }
  | 32 -> Net_retry { node = i.(0); seq = i.(1); attempt = i.(2) }
  | 33 -> Net_timeout { node = i.(0); seq = i.(1) }
  | 34 -> Net_arb { frame_id = i.(0); delay = i.(1) }
  | _ -> Note (get_string t c)

let iter f t =
  let c = cursor t in
  let at = ref 0 in
  while c.pos < t.len do
    at := !at + get_int c;
    let entry = get_entry t c (get_byte c) in
    c.pos <- c.pos + 1 (* the length byte *);
    f { at = !at; entry }
  done

(* Decoded from the last record back, so the list is consed once in
   chronological order; each record's delta steps [at] back. *)
let entries t =
  let c = cursor t in
  let rec back stop at acc =
    if stop = 0 then acc
    else begin
      let start = stop - 1 - Char.code (Bytes.get t.log (stop - 1)) in
      c.pos <- start;
      let delta = get_int c in
      let entry = get_entry t c (get_byte c) in
      back start (at - delta) ({ at; entry } :: acc)
    end
  in
  back t.len t.last_at []

let length t = t.count

let equal a b =
  let rec same_bytes i =
    i = a.len || (Bytes.get a.log i = Bytes.get b.log i && same_bytes (i + 1))
  in
  let rec same_strings i =
    i = a.n_strings
    || (String.equal a.strings.(i) b.strings.(i) && same_strings (i + 1))
  in
  a.busy = b.busy && a.switches = b.switches && a.len = b.len
  && a.n_strings = b.n_strings && same_bytes 0 && same_strings 0

type signature = {
  sig_log : string;
  sig_strings : string array;
  sig_busy : Model.Time.t;
  sig_switches : int;
}

let signature t =
  {
    sig_log = Bytes.sub_string t.log 0 t.len;
    sig_strings = Array.sub t.strings 0 t.n_strings;
    sig_busy = t.busy;
    sig_switches = t.switches;
  }

let context_switches t = t.switches
let deadline_misses t = t.misses
let preemptions t = t.preemptions
let overhead_total t = t.overhead

let overhead_by_category t =
  List.filter_map
    (fun c ->
      let total = t.by_category.(ovh_index c) in
      if total > 0 then Some (ovh_name c, total) else None)
    ovh_categories
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let first_miss t = t.first_miss
let budget_overruns t = t.overruns
let jobs_killed t = t.kills
let jobs_shed t = t.sheds
let busy_time t = t.busy
let add_busy t d = t.busy <- Model.Time.add t.busy d

(* Used by the kernel just before it emits a Context_switch. *)
let set_outgoing_ready t b = t.last_outgoing_ready <- b

let pp_entry ppf = function
  | Job_release { tid; job; deadline } ->
    Format.fprintf ppf "release   tau%d#%d (deadline %a)" tid job Model.Time.pp
      deadline
  | Job_complete { tid; job; response } ->
    Format.fprintf ppf "complete  tau%d#%d (response %a)" tid job Model.Time.pp
      response
  | Deadline_miss { tid; job; lateness } ->
    Format.fprintf ppf "MISS      tau%d#%d (late by %a)" tid job Model.Time.pp
      lateness
  | Context_switch { from_tid; to_tid } ->
    let pp_opt ppf = function
      | Some tid -> Format.fprintf ppf "tau%d" tid
      | None -> Format.pp_print_string ppf "idle"
    in
    Format.fprintf ppf "switch    %a -> %a" pp_opt from_tid pp_opt to_tid
  | Thread_block { tid; reason } ->
    Format.fprintf ppf "block     tau%d (%s)" tid reason
  | Thread_unblock { tid } -> Format.fprintf ppf "unblock   tau%d" tid
  | Sem_acquired { tid; sem } ->
    Format.fprintf ppf "sem-lock  tau%d sem%d" tid sem
  | Sem_blocked { tid; sem } ->
    Format.fprintf ppf "sem-wait  tau%d sem%d" tid sem
  | Sem_released { tid; sem } ->
    Format.fprintf ppf "sem-free  tau%d sem%d" tid sem
  | Priority_inherit { holder; from_tid } ->
    Format.fprintf ppf "inherit   tau%d <- prio of tau%d" holder from_tid
  | Priority_restore { holder } ->
    Format.fprintf ppf "restore   tau%d" holder
  | Approach_parked { tid; sem } ->
    Format.fprintf ppf "parked    tau%d awaiting sem%d" tid sem
  | Msg_sent { tid; mailbox; words } ->
    Format.fprintf ppf "send      tau%d mbox%d (%d words)" tid mailbox words
  | Msg_received { tid; mailbox; words; queued_for } ->
    Format.fprintf ppf "recv      tau%d mbox%d (%d words, queued %a)" tid
      mailbox words Model.Time.pp queued_for
  | State_written { tid; state; seq } ->
    Format.fprintf ppf "st-write  tau%d state%d seq=%d" tid state seq
  | State_read { tid; state; seq } ->
    Format.fprintf ppf "st-read   tau%d state%d seq=%d" tid state seq
  | Interrupt { irq } -> Format.fprintf ppf "interrupt irq%d" irq
  | Overhead { category; cost } ->
    Format.fprintf ppf "overhead  %s %a" (ovh_name category) Model.Time.pp cost
  | Budget_overrun { tid; job; used; budget } ->
    Format.fprintf ppf "OVERRUN   tau%d#%d (used %a of %a)" tid job
      Model.Time.pp used Model.Time.pp budget
  | Job_killed { tid; job } -> Format.fprintf ppf "KILL      tau%d#%d" tid job
  | Job_shed { tid; job; reason } ->
    Format.fprintf ppf "SHED      tau%d#%d (%s)" tid job reason
  | Block_alloc { tid; pool; live } ->
    Format.fprintf ppf "alloc     tau%d pool%d (live %d)" tid pool live
  | Block_free { tid; pool; live } ->
    Format.fprintf ppf "free      tau%d pool%d (live %d)" tid pool live
  | Pool_oom { tid; pool } ->
    Format.fprintf ppf "OOM       tau%d pool%d (exhausted)" tid pool
  | Pool_leak { tid; job; pool; count } ->
    Format.fprintf ppf "LEAK      tau%d#%d pool%d (%d blocks)" tid job pool
      count
  | Quota_exceeded { tid; job; live; quota } ->
    Format.fprintf ppf "QUOTA     tau%d#%d (%d live of %d)" tid job live quota
  | Input_word { tid; job; word } ->
    Format.fprintf ppf "input     tau%d#%d word=0x%Lx" tid job word
  | Branch { tid; pc; idx; taken } ->
    Format.fprintf ppf "branch    tau%d pc=%d bit%d %s" tid pc idx
      (if taken then "taken" else "not-taken")
  | Net_frame { node; dir; frame_id; words } ->
    Format.fprintf ppf "net-%-5s node%d frame=0x%x (%d words)"
      (net_dir_name dir) node frame_id words
  | Net_retry { node; seq; attempt } ->
    Format.fprintf ppf "net-retry node%d seq=%d attempt=%d" node seq attempt
  | Net_timeout { node; seq } ->
    Format.fprintf ppf "NET-TMO   node%d seq=%d (retry budget exhausted)" node
      seq
  | Net_arb { frame_id; delay } ->
    Format.fprintf ppf "net-arb   frame=0x%x delay=%a" frame_id Model.Time.pp
      delay
  | Note s -> Format.fprintf ppf "note      %s" s

let timeline_relevant = function
  | Job_release _ | Job_complete _ | Deadline_miss _ | Context_switch _
  | Budget_overrun _ | Job_killed _ | Job_shed _ ->
    true
  | Thread_block _ | Thread_unblock _ | Sem_acquired _ | Sem_blocked _
  | Sem_released _ | Priority_inherit _ | Priority_restore _
  | Approach_parked _ | Msg_sent _ | Msg_received _ | State_written _
  | State_read _ | Interrupt _ | Overhead _ | Block_alloc _ | Block_free _
  | Pool_oom _ | Pool_leak _ | Quota_exceeded _ | Input_word _ | Branch _
  | Net_frame _ | Net_retry _ | Net_timeout _ | Net_arb _ | Note _ ->
    false

let pp_stamped ppf { at; entry } =
  Format.fprintf ppf "%10.3fms  %a" (Model.Time.to_ms_f at) pp_entry entry

let responses t ~tid =
  let acc = ref [] in
  iter
    (fun { entry; _ } ->
      match entry with
      | Job_complete { tid = t'; response; _ } when t' = tid ->
        acc := response :: !acc
      | _ -> ())
    t;
  List.rev !acc

(* [(tid, detail)] of one entry's CSV row; the kind comes from the
   table above. *)
let csv_row = function
  | Job_release { tid; job; deadline } ->
    (tid, Printf.sprintf "job=%d deadline=%d" job deadline)
  | Job_complete { tid; job; response } ->
    (tid, Printf.sprintf "job=%d response=%d" job response)
  | Deadline_miss { tid; job; _ } -> (tid, Printf.sprintf "job=%d" job)
  | Context_switch { from_tid; to_tid } ->
    let s = function Some tid -> string_of_int tid | None -> "idle" in
    ( Option.value from_tid ~default:(-1),
      Printf.sprintf "from=%s to=%s" (s from_tid) (s to_tid) )
  | Thread_block { tid; reason } -> (tid, reason)
  | Thread_unblock { tid } -> (tid, "")
  | Sem_acquired { tid; sem } | Sem_blocked { tid; sem } | Sem_released { tid; sem }
  | Approach_parked { tid; sem } ->
    (tid, Printf.sprintf "sem=%d" sem)
  | Priority_inherit { holder; from_tid } ->
    (holder, Printf.sprintf "from=%d" from_tid)
  | Priority_restore { holder } -> (holder, "")
  | Msg_sent { tid; mailbox; words } ->
    (tid, Printf.sprintf "mbox=%d words=%d" mailbox words)
  | Msg_received { tid; mailbox; words; queued_for } ->
    (tid, Printf.sprintf "mbox=%d words=%d queued_ns=%d" mailbox words queued_for)
  | State_written { tid; state; seq } | State_read { tid; state; seq } ->
    (tid, Printf.sprintf "state=%d seq=%d" state seq)
  | Interrupt { irq } -> (-1, Printf.sprintf "irq=%d" irq)
  | Overhead { category; cost } ->
    (-1, Printf.sprintf "%s=%d" (ovh_name category) cost)
  | Budget_overrun { tid; job; used; budget } ->
    (tid, Printf.sprintf "job=%d used=%d budget=%d" job used budget)
  | Job_killed { tid; job } -> (tid, Printf.sprintf "job=%d" job)
  | Job_shed { tid; job; reason } ->
    (tid, Printf.sprintf "job=%d reason=%s" job reason)
  | Block_alloc { tid; pool; live } | Block_free { tid; pool; live } ->
    (tid, Printf.sprintf "pool=%d live=%d" pool live)
  | Pool_oom { tid; pool } -> (tid, Printf.sprintf "pool=%d" pool)
  | Pool_leak { tid; job; pool; count } ->
    (tid, Printf.sprintf "job=%d pool=%d count=%d" job pool count)
  | Quota_exceeded { tid; job; live; quota } ->
    (tid, Printf.sprintf "job=%d live=%d quota=%d" job live quota)
  | Input_word { tid; job; word } ->
    (tid, Printf.sprintf "job=%d word=0x%Lx" job word)
  | Branch { tid; pc; idx; taken } ->
    (tid, Printf.sprintf "pc=%d bit=%d taken=%b" pc idx taken)
  | Net_frame { node; frame_id; words; _ } ->
    (-1, Printf.sprintf "node=%d frame=%d words=%d" node frame_id words)
  | Net_retry { node; seq; attempt } ->
    (-1, Printf.sprintf "node=%d seq=%d attempt=%d" node seq attempt)
  | Net_timeout { node; seq } -> (-1, Printf.sprintf "node=%d seq=%d" node seq)
  | Net_arb { frame_id; delay } ->
    (-1, Printf.sprintf "frame=%d delay_ns=%d" frame_id delay)
  | Note s -> (-1, s)

let csv_fields entry =
  let tid, detail = csv_row entry in
  (kind_name (kind entry), tid, detail)

(* The CSV of whatever [iter_events] walks, header first. *)
let csv_of iter_events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_ns,kind,tid,detail\n";
  iter_events (fun { at; entry } ->
      let kind, tid, detail = csv_fields entry in
      Buffer.add_string buf (Printf.sprintf "%d,%s,%d,%s\n" at kind tid detail));
  Buffer.contents buf

let csv_of_stamped stamped = csv_of (fun f -> List.iter f stamped)
let to_csv t = csv_of (fun f -> iter f t)

let pp_timeline ppf t =
  let emit_line { at; entry } =
    if timeline_relevant entry then
      Format.fprintf ppf "%10.3fms  %a@," (Model.Time.to_ms_f at) pp_entry
        entry
  in
  Format.fprintf ppf "@[<v>";
  iter emit_line t;
  Format.fprintf ppf "@]"
