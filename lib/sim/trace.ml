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
      (* fabric: a send exhausted its retry budget (link suspect) *)
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

type t = {
  keep : bool;
  mutable entries : stamped list; (* reversed *)
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
  (* Per-task response-time histograms indexed by tid, maintained ONLY
     under [keep = false] so that [responses] can degrade gracefully
     instead of returning []; with [keep = true] the exact entry list
     is the source of truth and this array stays empty.  A flat array
     (not a Hashtbl) because the lookup sits on the per-completion hot
     path of probe-disabled simulations. *)
  mutable resp_hists : Util.Hist.t option array;
}

let create ?(keep_entries = true) () =
  {
    keep = keep_entries;
    entries = [];
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
    resp_hists = [||];
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
  | Job_complete { tid; response; _ } when (not t.keep) && tid >= 0 ->
    if tid >= Array.length t.resp_hists then begin
      let grown = Array.make (max (tid + 1) (2 * Array.length t.resp_hists)) None in
      Array.blit t.resp_hists 0 grown 0 (Array.length t.resp_hists);
      t.resp_hists <- grown
    end;
    let h =
      match t.resp_hists.(tid) with
      | Some h -> h
      | None ->
        let h = Util.Hist.create () in
        t.resp_hists.(tid) <- Some h;
        h
    in
    Util.Hist.observe h response
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

let record t ({ at; entry } as stamped) =
  tally t ~at entry;
  if t.keep then t.entries <- stamped :: t.entries

let emit t ~at entry =
  tally t ~at entry;
  if t.keep then t.entries <- { at; entry } :: t.entries

let entries t = List.rev t.entries

let equal a b =
  a.busy = b.busy && a.switches = b.switches && a.entries = b.entries

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
  if t.keep then
    List.filter_map
      (fun { entry; _ } ->
        match entry with
        | Job_complete { tid = t'; response; _ } when t' = tid -> Some response
        | _ -> None)
      (entries t)
  else if tid >= 0 && tid < Array.length t.resp_hists then
    match t.resp_hists.(tid) with
    | None -> []
    | Some h -> Util.Hist.samples h
  else []

let response_hist t ~tid =
  if t.keep then (
    let h = Util.Hist.create () in
    List.iter (Util.Hist.observe h) (responses t ~tid);
    h)
  else if tid >= 0 && tid < Array.length t.resp_hists then
    match t.resp_hists.(tid) with
    | Some h -> h
    | None -> Util.Hist.create ()
  else Util.Hist.create ()

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

let csv_of_stamped stamped =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_ns,kind,tid,detail\n";
  List.iter
    (fun { at; entry } ->
      let kind, tid, detail = csv_fields entry in
      Buffer.add_string buf (Printf.sprintf "%d,%s,%d,%s\n" at kind tid detail))
    stamped;
  Buffer.contents buf

let to_csv t = csv_of_stamped (entries t)

let pp_timeline ppf t =
  let emit_line { at; entry } =
    if timeline_relevant entry then
      Format.fprintf ppf "%10.3fms  %a@," (Model.Time.to_ms_f at) pp_entry
        entry
  in
  Format.fprintf ppf "@[<v>";
  List.iter emit_line (entries t);
  Format.fprintf ppf "@]"
