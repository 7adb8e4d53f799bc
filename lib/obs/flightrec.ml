type trigger =
  | On_miss
  | On_overrun
  | On_kill
  | On_oom
  | On_quota
  | On_net_timeout

(* Modeled slot: 8-byte timestamp + 8-byte tag + up to four 8-byte
   payload words — what a packed C struct for the widest entry
   (Budget_overrun) would take. *)
let slot_bytes = 48

let trigger_bit = function
  | On_miss -> 1
  | On_overrun -> 2
  | On_kill -> 4
  | On_oom -> 8
  | On_quota -> 16
  | On_net_timeout -> 32

(* The trigger an entry would fire, as its bit; 0 for the rest. *)
let entry_bit : Sim.Trace.entry -> int = function
  | Deadline_miss _ -> trigger_bit On_miss
  | Budget_overrun _ -> trigger_bit On_overrun
  | Job_killed _ -> trigger_bit On_kill
  | Pool_oom _ -> trigger_bit On_oom
  | Quota_exceeded _ -> trigger_bit On_quota
  | Net_timeout _ -> trigger_bit On_net_timeout
  | _ -> 0

(* The ring holds the last [min total capacity] records offered; the
   slots past them hold [empty], never read. *)
let empty = { Sim.Trace.at = 0; entry = Note "" }

type t = {
  slots : Sim.Trace.stamped array;
  armed : int; (* trigger bits *)
  mutable next : int; (* write cursor *)
  mutable total : int;
  mutable frozen : Sim.Trace.stamped option; (* triggering entry *)
}

let create ~bytes ~triggers () =
  if bytes < slot_bytes then
    invalid_arg
      (Printf.sprintf "Flightrec.create: %d bytes < one %d-byte slot" bytes
         slot_bytes);
  {
    slots = Array.make (bytes / slot_bytes) empty;
    armed = List.fold_left (fun m trig -> m lor trigger_bit trig) 0 triggers;
    next = 0;
    total = 0;
    frozen = None;
  }

let capacity t = Array.length t.slots
let footprint_bytes t = capacity t * slot_bytes

let record t (stamped : Sim.Trace.stamped) =
  if Option.is_none t.frozen then begin
    t.slots.(t.next) <- stamped;
    t.next <- (if t.next + 1 = capacity t then 0 else t.next + 1);
    t.total <- t.total + 1;
    if t.armed land entry_bit stamped.entry <> 0 then
      t.frozen <- Some stamped
  end

let attach t probe = Probe.subscribe probe ~mask:Probe.all_mask (record t)
let total_recorded t = t.total
let triggered t = t.frozen

let dump t =
  let cap = capacity t in
  let n = min t.total cap in
  (* the oldest record is at the write cursor once the ring has
     wrapped, at slot 0 before *)
  let oldest = (t.next - n + cap) mod cap in
  List.init n (fun i -> t.slots.((oldest + i) mod cap))
