type category =
  | Job
  | Sched
  | Sync
  | Ipc
  | Irq
  | Overhead
  | Enforce
  | Mem
  | Ctl
  | Net
  | Meta

let all_categories =
  [ Job; Sched; Sync; Ipc; Irq; Overhead; Enforce; Mem; Ctl; Net; Meta ]

let category_name = function
  | Job -> "job"
  | Sched -> "sched"
  | Sync -> "sync"
  | Ipc -> "ipc"
  | Irq -> "irq"
  | Overhead -> "overhead"
  | Enforce -> "enforce"
  | Mem -> "mem"
  | Ctl -> "ctl"
  | Net -> "net"
  | Meta -> "meta"

let category_of_name s =
  List.find_opt (fun c -> category_name c = s) all_categories

let category_of_entry : Sim.Trace.entry -> category = function
  | Job_release _ | Job_complete _ | Deadline_miss _ -> Job
  | Context_switch _ | Thread_block _ | Thread_unblock _ -> Sched
  | Sem_acquired _ | Sem_blocked _ | Sem_released _ | Priority_inherit _
  | Priority_restore _ | Approach_parked _ ->
    Sync
  | Msg_sent _ | Msg_received _ | State_written _ | State_read _ -> Ipc
  | Interrupt _ -> Irq
  | Overhead _ -> Overhead
  | Budget_overrun _ | Job_killed _ | Job_shed _ -> Enforce
  | Block_alloc _ | Block_free _ | Pool_oom _ | Pool_leak _ | Quota_exceeded _
    ->
    Mem
  | Input_word _ | Branch _ -> Ctl
  | Net_frame _ | Net_retry _ | Net_timeout _ | Net_arb _ -> Net
  | Note _ -> Meta

type mask = int

let bit = function
  | Job -> 1
  | Sched -> 2
  | Sync -> 4
  | Ipc -> 8
  | Irq -> 16
  | Overhead -> 32
  | Enforce -> 64
  | Mem -> 128
  | Ctl -> 256
  | Meta -> 512
  | Net -> 1024

let mask_of cats = List.fold_left (fun m c -> m lor bit c) 0 cats
let all_mask = mask_of all_categories

type subscriber = { s_mask : mask; fn : Sim.Trace.stamped -> unit }

type t = {
  tr : Sim.Trace.t;
  mutable trace_mask : mask;
  mutable subs : subscriber array; (* in subscription order, see emit *)
  mutable union : mask; (* union of subscriber masks *)
  (* [plain] caches "trace fully enabled, nobody listening": the hot
     path is then one load+test on top of the bare Sim.Trace.emit. *)
  mutable plain : bool;
}

let refresh t =
  t.union <- Array.fold_left (fun m s -> m lor s.s_mask) 0 t.subs;
  t.plain <- t.trace_mask = all_mask && t.union = 0

let create ~trace () =
  { tr = trace; trace_mask = all_mask; subs = [||]; union = 0; plain = true }

let set_trace_mask t m =
  t.trace_mask <- m land all_mask;
  refresh t

let subscribe t ~mask fn =
  t.subs <- Array.append t.subs [| { s_mask = mask land all_mask; fn } |];
  refresh t

(* One stamped record per event, shared by the built-in trace and every
   subscriber; a plain loop over the array, so no closure either. *)
let emit t ~at entry =
  if t.plain then Sim.Trace.emit t.tr ~at entry
  else begin
    let b = bit (category_of_entry entry) in
    let stamped = { Sim.Trace.at; entry } in
    if t.trace_mask land b <> 0 then Sim.Trace.record t.tr stamped;
    if t.union land b <> 0 then
      for i = 0 to Array.length t.subs - 1 do
        let s = t.subs.(i) in
        if s.s_mask land b <> 0 then s.fn stamped
      done
  end
