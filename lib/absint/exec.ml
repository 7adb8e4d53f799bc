open Emeralds

type env = {
  cost : Sim.Cost.t;
  mb_words : int -> int;
  acquire_wait : int -> Itv.t;
}

type lesion = Drop_loop_mult | Drop_branch_join

type hold = { sem : Types.sem; span : Itv.t; acquire_pc : int }

type summary = {
  exec : Itv.t;
  suspend : Itv.t;
  holds : hold list;
  nesting : int;
  atomic : int;
  unbounded_held_pcs : int list;
  peak_live : (int * Itv.t) list;
}

(* An open critical section accumulates the interval of everything that
   elapses while its semaphore is held; the accumulator at the matching
   release is the hold's span. *)
type osec = { o_sem : Types.sem; o_pc : int; acc : Itv.t }

(* pool id -> (blocks held now, running peak); both worst-path ints,
   reported as [0, peak] (any grant may be denied when other tasks
   exhaust the pool, so the floor is always 0). *)
type pstate = { cur : int; peak : int }

type astate = {
  elapsed : Itv.t;
      (* demand + waits since job start — the reference clock loop
         scaling uses to recover per-iteration charges *)
  exec : Itv.t;
  suspend : Itv.t;
  open_s : osec list; (* innermost first *)
  live : (int * pstate) list; (* sorted by pool id *)
}

let init_state =
  { elapsed = Itv.zero; exec = Itv.zero; suspend = Itv.zero; open_s = []; live = [] }

let live_find live pool_id =
  match List.assoc_opt pool_id live with
  | Some p -> p
  | None -> { cur = 0; peak = 0 }

let live_set live pool_id p =
  List.sort compare ((pool_id, p) :: List.remove_assoc pool_id live)

(* Merge open sections at a control-flow join.  Sections matching by
   semaphore take the hull of their accumulators; a section open on
   only one path survives — it may span the merge on that path, and
   keeping it only lengthens the derived hold. *)
let join_open xs ys =
  let rec merge xs ys =
    match xs with
    | [] -> ys
    | x :: xs' -> (
      let rec take acc = function
        | [] -> None
        | (y : osec) :: rest when y.o_sem.Types.sem_id = x.o_sem.Types.sem_id ->
          Some (y, List.rev_append acc rest)
        | y :: rest -> take (y :: acc) rest
      in
      match take [] ys with
      | Some (y, ys') ->
        { x with acc = Itv.join x.acc y.acc } :: merge xs' ys'
      | None -> x :: merge xs' ys)
  in
  merge xs ys

let join_live a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      let pa = live_find a k and pb = live_find b k in
      (k, { cur = max pa.cur pb.cur; peak = max pa.peak pb.peak }))
    keys

let join_state a b =
  {
    elapsed = Itv.join a.elapsed b.elapsed;
    exec = Itv.join a.exec b.exec;
    suspend = Itv.join a.suspend b.suspend;
    open_s = join_open a.open_s b.open_s;
    live = join_live a.live b.live;
  }

(* Same open sections by identity (semaphore and acquire site) — the
   accumulators are expected to differ across a loop iteration. *)
let same_shape a b =
  List.length a.open_s = List.length b.open_s
  && List.for_all2
       (fun (x : osec) (y : osec) ->
         x.o_sem.Types.sem_id = y.o_sem.Types.sem_id && x.o_pc = y.o_pc)
       a.open_s b.open_s

let interpret ?lesion env (program : Types.instr array) =
  let holds = ref [] in
  let nesting = ref 0 in
  let atomic = ref 0 in
  let unbounded_held = ref [] in
  let close st (s : Types.sem) =
    (* innermost matching acquisition, as the kernel unwinds them *)
    let rec split acc = function
      | [] -> None
      | (sec : osec) :: rest when sec.o_sem.Types.sem_id = s.Types.sem_id ->
        Some (sec, List.rev_append acc rest)
      | sec :: rest -> split (sec :: acc) rest
    in
    match split [] st.open_s with
    | Some (sec, rest) ->
      holds :=
        { sem = sec.o_sem; span = sec.acc; acquire_pc = sec.o_pc } :: !holds;
      { st with open_s = rest }
    | None -> st (* unmatched release: lock balance reports it *)
  in
  (* [pc] is the instruction's position in the structured program at
     top level; instructions nested in branch arms or loop bodies
     inherit the position of their outermost enclosing instruction. *)
  let rec exec_list pc st instrs =
    List.fold_left (fun st instr -> exec_instr pc st instr) st instrs
  and exec_instr pc st (instr : Types.instr) =
    match instr with
    | Types.If_input (a, b) ->
      let sa = exec_list pc st a in
      if lesion = Some Drop_branch_join then sa
      else join_state sa (exec_list pc st b)
    | Types.Repeat (n, body) ->
      if n = 0 then st
      else begin
        let st1 = exec_list pc st body in
        let reps = if lesion = Some Drop_loop_mult then 1 else n in
        (* [diff] recovers the exact per-iteration charge: every
           accumulator evolves by interval additions (and joins of
           such, which addition distributes over), so the before/after
           difference is the iteration's charge hull.  The remaining
           [reps - 1] iterations each add a value from that hull. *)
        let extra itv0 itv1 = Itv.scale (reps - 1) (Itv.diff itv1 itv0) in
        let scaled =
          {
            st1 with
            elapsed = Itv.add st1.elapsed (extra st.elapsed st1.elapsed);
            exec = Itv.add st1.exec (extra st.exec st1.exec);
            suspend = Itv.add st1.suspend (extra st.suspend st1.suspend);
          }
        in
        if same_shape st st1 then
          (* lock-balanced body (holds closed inside the interpreted
             iteration recur identically in later ones — the join of
             their spans is idempotent, so one emission covers all).
             Sections spanning the loop keep accumulating: scale their
             per-iteration growth too. *)
          let open_s =
            List.map2
              (fun (s0 : osec) (s1 : osec) ->
                { s1 with acc = Itv.add s1.acc (extra s0.acc s1.acc) })
              st.open_s st1.open_s
          in
          (* live blocks may be retained across iterations —
             extrapolate the per-iteration growth *)
          let live =
            List.sort_uniq compare (List.map fst st.live @ List.map fst st1.live)
            |> List.map (fun k ->
                   let p0 = live_find st.live k and p1 = live_find st1.live k in
                   let d = p1.cur - p0.cur in
                   if d <= 0 then (k, p1)
                   else
                     ( k,
                       {
                         cur = p1.cur + ((reps - 1) * d);
                         peak = p1.peak + ((reps - 1) * d);
                       } ))
          in
          { scaled with open_s; live }
        else
          (* the body opens or closes sections unmatched across
             iterations — lock balance errors on such programs and the
             campaign rejects them as invalid.  Stay sound anyway:
             sections carried out of the loop get unbounded spans
             (hold-unbounded territory), live growth is extrapolated
             from the worst per-pool delta. *)
          {
            scaled with
            open_s =
              List.map
                (fun (sec : osec) -> { sec with acc = Itv.unbounded_from 0 })
                st1.open_s;
            live =
              join_live st.live
                (List.map
                   (fun (k, (p : pstate)) ->
                     let p0 = live_find st.live k in
                     let d = max 0 (p.cur - p0.cur) in
                     ( k,
                       {
                         cur = p.cur + ((reps - 1) * d);
                         peak = p.peak + ((reps - 1) * d);
                       } ))
                   st1.live);
          }
      end
    | Types.Br_input _ | Types.Jump _ ->
      (* already-lowered control transfers carry no kernel charge.  The
         interpreter expects the structured form; on a flat array it
         degrades to charging both arms in sequence, which cannot
         under-approximate. *)
      st
    | _ ->
      let lo, hi = Charge.of_instr ~recv_words:env.mb_words env.cost instr in
      let demand =
        match instr with Types.Compute w -> Itv.const w | _ -> Itv.range lo hi
      in
      (* time the job may spend blocked, as far as the instruction's own
         text bounds it: untimed blocking calls have no local bound *)
      let suspend =
        match instr with
        | Types.Acquire _ | Types.Wait _ | Types.Send _ | Types.Recv _ ->
          Itv.unbounded_from 0
        | Types.Timed_wait (_, d) -> Itv.range 0 (max 0 d)
        | Types.Delay d -> Itv.const d
        | _ -> Itv.zero
      in
      (* time that elapses for the job at this instruction, seen from an
         enclosing critical section: charged demand, plus the wait —
         where an acquire's wait is bounded by the semaphore's worst
         hold elsewhere rather than by its (locally unbounded) text *)
      let elapsed_here =
        match instr with
        | Types.Acquire s -> Itv.add demand (env.acquire_wait s.Types.sem_id)
        | _ -> Itv.add demand suspend
      in
      if
        st.open_s <> []
        && (not (Itv.is_bounded suspend))
        && not (match instr with Types.Acquire _ -> true | _ -> false)
      then unbounded_held := pc :: !unbounded_held;
      (* every charge of a kernel call runs with interrupts deferred;
         compute is preemptible ([hi] is 0 for it) *)
      atomic := max !atomic hi;
      let frames =
        List.length st.open_s + (if Program.is_blocking instr then 1 else 0)
      in
      nesting := max !nesting frames;
      let st =
        {
          st with
          elapsed = Itv.add st.elapsed elapsed_here;
          exec = Itv.add st.exec demand;
          suspend =
            (match instr with
            | Types.Acquire _ ->
              st.suspend (* blocking term territory, not suspension *)
            | _ -> Itv.add st.suspend suspend);
          open_s =
            List.map
              (fun (sec : osec) -> { sec with acc = Itv.add sec.acc elapsed_here })
              st.open_s;
        }
      in
      (match instr with
      | Types.Acquire s ->
        let st =
          {
            st with
            open_s = { o_sem = s; o_pc = pc; acc = Itv.zero } :: st.open_s;
          }
        in
        nesting := max !nesting (List.length st.open_s);
        st
      | Types.Release s -> close st s
      | Types.Alloc p ->
        let pl = live_find st.live p.Types.pool_id in
        let cur = pl.cur + 1 in
        {
          st with
          live = live_set st.live p.Types.pool_id { cur; peak = max pl.peak cur };
        }
      | Types.Free p ->
        let pl = live_find st.live p.Types.pool_id in
        {
          st with
          live =
            live_set st.live p.Types.pool_id { pl with cur = max 0 (pl.cur - 1) };
        }
      | _ -> st)
  in
  let final = ref init_state in
  Array.iteri (fun pc instr -> final := exec_instr pc !final instr) program;
  (* sections never released run to the end of the job *)
  let rec drain st =
    match st.open_s with
    | [] -> st
    | sec :: _ -> drain (close st sec.o_sem)
  in
  let final = drain !final in
  {
    exec = final.exec;
    suspend = final.suspend;
    holds = List.rev !holds;
    nesting = !nesting;
    atomic = !atomic;
    unbounded_held_pcs = List.rev !unbounded_held;
    peak_live =
      List.map (fun (pool, (p : pstate)) -> (pool, Itv.range 0 p.peak)) final.live;
  }
