open Emeralds

let name = "alloc-discipline"

module Imap = Map.Make (Int)

(* Per-pool state: held blocks and the running peak, each an interval
   [lo, hi] over paths.  peak_lo under-approximates the smallest
   per-path peak (sound for "certain" claims), peak_hi bounds the
   largest (sound for "possible" ones). *)
type row = { pool : Types.pool; lo : int; hi : int; peak_lo : int; peak_hi : int }

let find held (p : Types.pool) =
  match Imap.find_opt p.pool_id held with
  | Some row -> row
  | None -> { pool = p; lo = 0; hi = 0; peak_lo = 0; peak_hi = 0 }

let join a b =
  Imap.merge
    (fun _ x y ->
      match (x, y) with
      | Some r1, Some r2 ->
        Some
          {
            r1 with
            lo = min r1.lo r2.lo;
            hi = max r1.hi r2.hi;
            peak_lo = min r1.peak_lo r2.peak_lo;
            peak_hi = max r1.peak_hi r2.peak_hi;
          }
      | Some r, None | None, Some r -> Some { r with lo = 0; peak_lo = 0 }
      | None, None -> None)
    a b

(* Per-task path-sensitive walk: pool_id -> row. *)
let walk (tp : Ctx.task_prog) on_bad_free =
  let transfer ~pc instr held =
    match instr with
    | Types.Alloc p ->
      let r = find held p in
      Imap.add p.pool_id
        {
          r with
          lo = r.lo + 1;
          hi = r.hi + 1;
          peak_lo = max r.peak_lo (r.lo + 1);
          peak_hi = max r.peak_hi (r.hi + 1);
        }
        held
    | Types.Free p ->
      let r = find held p in
      if r.lo = 0 then on_bad_free ~pc ~certain:(r.hi = 0) p;
      Imap.add p.pool_id { r with lo = max 0 (r.lo - 1); hi = max 0 (r.hi - 1) } held
    | _ -> held
  in
  snd (Ctx.dataflow ~init:Imap.empty ~join ~transfer tp)

(* The per-job leak a row predicts: the floor when every path leaks
   (must), else the ceiling when some path does (may). *)
type leak = { task : int; pool : Types.pool; blocks : int; must : bool }

let leak_of task (r : row) =
  let leak blocks must = Some { task; pool = r.pool; blocks; must } in
  if r.lo > 0 then leak r.lo true else if r.hi > 0 then leak r.hi false
  else None

let leaks (ctx : Ctx.t) =
  Array.to_list ctx.tasks
  |> List.concat_map (fun (tp : Ctx.task_prog) ->
         walk tp (fun ~pc:_ ~certain:_ _ -> ())
         |> Imap.bindings
         |> List.filter_map (fun (_, r) -> leak_of tp.task.id r))

let leak_message l =
  let id = l.pool.pool_id in
  if l.must then
    Printf.sprintf
      "%d block(s) of pool %d still held at job end: leaked every job, the \
       pool would exhaust within %d job(s) (the kernel reclaims and records \
       the leak)"
      l.blocks id
      ((l.pool.pool_capacity + l.blocks - 1) / l.blocks)
  else
    Printf.sprintf
      "up to %d block(s) of pool %d may leak at job end on some paths (the \
       kernel reclaims and records the leak when that branch is taken)"
      l.blocks id

let run (ctx : Ctx.t) =
  let diags = ref [] in
  let add sev ?task ?pc msg =
    diags := Diag.make sev ~check:name ?task ?pc msg :: !diags
  in
  (* pool_id -> (pool, sum of per-task peaks): the worst concurrent
     demand if every task sits at its own worst-path peak at once *)
  let concurrent : (int, Types.pool * int) Hashtbl.t = Hashtbl.create 4 in
  Array.iter
    (fun (tp : Ctx.task_prog) ->
      let tid = tp.task.id in
      let held =
        walk tp (fun ~pc ~certain (p : Types.pool) ->
            add Diag.Error ~task:tid ~pc
              (if certain then
                 Printf.sprintf
                   "free of a block of pool %d the job does not hold (kernel \
                    raises at run time)"
                   p.pool_id
               else
                 Printf.sprintf
                   "free of a block of pool %d the job does not hold on some \
                    path (kernel raises at run time when that branch is \
                    taken)"
                   p.pool_id))
      in
      Imap.iter
        (fun _ (r : row) ->
          let p = r.pool in
          Option.iter
            (fun l -> add Diag.Error ~task:tid (leak_message l))
            (leak_of tid r);
          if r.peak_lo > p.pool_capacity then
            add Diag.Error ~task:tid
              (Printf.sprintf
                 "peak demand of %d live block(s) exceeds pool %d's capacity \
                  %d even with the pool to itself: allocation denial is \
                  certain"
                 r.peak_lo p.pool_id p.pool_capacity)
          else if r.peak_hi > p.pool_capacity then
            add Diag.Error ~task:tid
              (Printf.sprintf
                 "peak demand of %d live block(s) on some path exceeds pool \
                  %d's capacity %d even with the pool to itself: allocation \
                  denial is certain when that branch is taken"
                 r.peak_hi p.pool_id p.pool_capacity);
          match Hashtbl.find_opt concurrent p.pool_id with
          | Some (_, sum) ->
            Hashtbl.replace concurrent p.pool_id (p, sum + r.peak_hi)
          | None -> Hashtbl.add concurrent p.pool_id (p, r.peak_hi))
        held)
    ctx.tasks;
  Hashtbl.iter
    (fun _ ((p : Types.pool), sum) ->
      if sum > p.pool_capacity then
        add Diag.Warning
          (Printf.sprintf
             "pool %d: combined peak demand %d exceeds capacity %d; \
              preemption can exhaust the pool and deny an allocation"
             p.pool_id sum p.pool_capacity))
    concurrent;
  !diags
