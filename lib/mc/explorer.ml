type bounds = { horizon : int; max_states : int; max_depth : int }

let default_bounds (m : Machine.t) =
  { horizon = m.hyperperiod; max_states = 200_000; max_depth = 10_000 }

type result = {
  verdict : [ `Ok | `Violation of Counterexample.t ];
  expansions : int;
  distinct : int;
  revisits : int;
  por_skipped : int;
  truncated : bool;
  jobs : int;
  max_response : int array;
}

let check ?(por = true) ?seed ~props ~bounds m =
  let por = por && not (List.exists (fun p -> p.Props.timing_sensitive) props) in
  (* With a seed, each branch's children are pushed in a shuffled order.
     While no bound cuts the search, the visited set makes the explored
     state space identical; the counterexample search order — which of
     several violating traces is found first — varies reproducibly with
     the seed.  A bound that truncates the search cuts it at a place
     that depends on the order, so then the space, and the verdict, may
     differ. *)
  let shuffle =
    match seed with
    | None -> fun cs -> cs
    | Some s ->
      let rng = Util.Rng.create ~seed:s in
      fun cs ->
        let a = Array.of_list cs in
        Util.Rng.shuffle rng a;
        Array.to_list a
  in
  let check = Props.check_changed props m in
  let check_note = Props.check_note props m in
  let visited = Visited.create m in
  let expansions = ref 0 in
  let revisits = ref 0 in
  let skipped = ref 0 in
  let truncated = ref false in
  let jobs = ref 0 in
  let max_response = Array.make (Machine.n_tasks m) 0 in
  let violation = ref None in
  (* Explicit DFS stack.  A frame is a parent decision state, its index
     vector in the visited set, and the reversed choice path that
     reaches the child, structurally shared with its siblings: the head
     is the choice to commit (none for the initial state), so each
     child is copied once, when expanded. *)
  let stack = ref [ (State.init m, Visited.root, [], 0) ] in
  while !stack <> [] && !violation = None do
    match !stack with
    | [] -> ()
    | (st, pvec, path, depth) :: rest ->
      stack := rest;
      if !expansions >= bounds.max_states then truncated := true
      else begin
        incr expansions;
        let choice = match path with ch :: _ -> Some ch | [] -> None in
        let e =
          Step.expand ~check ~check_note ?choice ~horizon:bounds.horizon m st
        in
        List.iter
          (fun (_, n) ->
            match n with
            | State.Job_done { idx; response } ->
              incr jobs;
              if response > max_response.(idx) then
                max_response.(idx) <- response
            | _ -> ())
          e.notes;
        match e.violation with
        | Some (p, msg, at) ->
          violation :=
            Some
              {
                Counterexample.prop = p;
                message = msg;
                at;
                horizon = bounds.horizon;
                choices = List.rev path;
              }
        | None -> (
          match e.next with
          | `Leaf -> ()
          | `Branch cs ->
            match Visited.visit visited ~parent:st ~pvec e.state with
            | None -> incr revisits
            | Some _ when depth >= bounds.max_depth -> truncated := true
            | Some vec ->
              let cs, sk = if por then Por.reduce m e.state cs else (cs, 0) in
              let cs = shuffle cs in
              skipped := !skipped + sk;
              List.iter
                (fun ch ->
                  stack := (e.state, vec, ch :: path, depth + 1) :: !stack)
                cs)
      end
  done;
  {
    verdict =
      (match !violation with None -> `Ok | Some cex -> `Violation cex);
    expansions = !expansions;
    distinct = Visited.length visited;
    revisits = !revisits;
    por_skipped = !skipped;
    truncated = !truncated;
    jobs = !jobs;
    max_response;
  }
