(* Reference trace store for test_sim: [Sim.Trace]'s store in its list
   form — every kept event a [stamped] record consed onto a reversed
   list, compared with polymorphic equality.  Its entry types are
   [Sim.Trace]'s, so the byte log's [entries], [iter], [length],
   counters and [equal] verdicts compare against this one directly. *)

open Sim.Trace

type t = {
  keep : bool;
  mutable entries : stamped list; (* reversed *)
  mutable switches : int;
  mutable misses : int;
  mutable preemptions : int;
  mutable overhead : Model.Time.t;
  by_category : Model.Time.t array;
  mutable first_miss : stamped option;
  mutable overruns : int;
  mutable kills : int;
  mutable sheds : int;
  mutable busy : Model.Time.t;
  mutable last_outgoing_ready : bool;
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
  }

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
  | _ -> ()

let record t ({ at; entry } as stamped) =
  tally t ~at entry;
  if t.keep then t.entries <- stamped :: t.entries

let emit t ~at entry =
  tally t ~at entry;
  if t.keep then t.entries <- { at; entry } :: t.entries

let entries t = List.rev t.entries
let length t = List.length t.entries

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
let set_outgoing_ready t b = t.last_outgoing_ready <- b
