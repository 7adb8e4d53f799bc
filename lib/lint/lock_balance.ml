open Emeralds

let name = "lock-balance"

module Imap = Map.Make (Int)

(* Per-sem acquisitions not yet released as an interval [lo, hi]: lo
   on the stingiest path to the point, hi on the greediest.  Input
   bits make every path feasible, so hi-findings are real executions,
   not artefacts. *)
let find held (s : Types.sem) =
  match Imap.find_opt s.sem_id held with Some row -> row | None -> (s, 0, 0)

let join a b =
  Imap.merge
    (fun _ x y ->
      match (x, y) with
      | Some (s, lo1, hi1), Some (_, lo2, hi2) ->
        Some (s, min lo1 lo2, max hi1 hi2)
      | Some (s, lo, hi), None | None, Some (s, lo, hi) ->
        Some (s, min lo 0, max hi 0)
      | None, None -> None)
    a b

let run (ctx : Ctx.t) =
  let diags = ref [] in
  let add sev ~task ?pc msg =
    diags := Diag.make sev ~check:name ~task ?pc msg :: !diags
  in
  Array.iter
    (fun (tp : Ctx.task_prog) ->
      let tid = tp.task.id in
      let transfer ~pc instr held =
        match instr with
        | Types.Acquire s ->
          let _, lo, hi = find held s in
          if hi > 0 then
            add Diag.Error ~task:tid ~pc
              (if lo > 0 then
                 Printf.sprintf
                   "double acquire of sem %d: the job blocks on itself"
                   s.sem_id
               else
                 Printf.sprintf
                   "double acquire of sem %d on some path: the job blocks on \
                    itself when that branch is taken"
                   s.sem_id);
          Imap.add s.sem_id (s, lo + 1, hi + 1) held
        | Types.Release s ->
          let _, lo, hi = find held s in
          if lo = 0 then
            add Diag.Error ~task:tid ~pc
              (if hi = 0 then
                 Printf.sprintf
                   "release of sem %d never acquired (kernel raises at run \
                    time)"
                   s.sem_id
               else
                 Printf.sprintf
                   "release of sem %d not acquired on some path (kernel \
                    raises at run time when that branch is taken)"
                   s.sem_id);
          Imap.add s.sem_id (s, max 0 (lo - 1), max 0 (hi - 1)) held
        | _ -> held
      in
      let _, at_end = Ctx.dataflow ~init:Imap.empty ~join ~transfer tp in
      Imap.iter
        (fun _ ((s : Types.sem), lo, hi) ->
          if lo > 0 then
            add Diag.Error ~task:tid
              (Printf.sprintf
                 "sem %d still held at job end: the next job self-deadlocks \
                  re-acquiring it"
                 s.sem_id)
          else if hi > 0 then
            add Diag.Error ~task:tid
              (Printf.sprintf
                 "sem %d may be held at job end on some paths: the next job \
                  self-deadlocks re-acquiring it when that branch is taken"
                 s.sem_id))
        at_end)
    ctx.tasks;
  !diags
