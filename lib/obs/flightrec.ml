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

type t = {
  slots : Sim.Trace.stamped option array;
  triggers : trigger list;
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
    slots = Array.make (bytes / slot_bytes) None;
    triggers;
    next = 0;
    total = 0;
    frozen = None;
  }

let capacity t = Array.length t.slots
let footprint_bytes t = capacity t * slot_bytes

let trips t (entry : Sim.Trace.entry) =
  List.exists
    (fun trig ->
      match (trig, entry) with
      | On_miss, Deadline_miss _
      | On_overrun, Budget_overrun _
      | On_kill, Job_killed _
      | On_oom, Pool_oom _
      | On_quota, Quota_exceeded _
      | On_net_timeout, Net_timeout _ ->
        true
      | _ -> false)
    t.triggers

let record t (stamped : Sim.Trace.stamped) =
  if t.frozen = None then begin
    t.slots.(t.next) <- Some stamped;
    t.next <- (t.next + 1) mod capacity t;
    t.total <- t.total + 1;
    if trips t stamped.entry then t.frozen <- Some stamped
  end

let attach t probe = Probe.subscribe probe ~mask:Probe.all_mask (record t)
let total_recorded t = t.total
let triggered t = t.frozen

let dump t =
  let cap = capacity t in
  let acc = ref [] in
  for i = 0 to cap - 1 do
    (* oldest slot is at the write cursor once the ring has wrapped *)
    match t.slots.((t.next + i) mod cap) with
    | Some s -> acc := s :: !acc
    | None -> ()
  done;
  List.rev !acc
