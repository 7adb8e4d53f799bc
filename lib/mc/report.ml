let ms = Model.Time.to_ms_f

let run ~por ~rta ~seed ~props ~bounds (scenario : Workload.Scenario.t) m =
  let por = por && not rta in
  let r = Explorer.check ~por ?seed ~props ~bounds m in
  let text () =
    let b = Buffer.create 1024 in
    Printf.bprintf b "%s: %d tasks, horizon %.1fms, properties: %s%s\n"
      scenario.name (Machine.n_tasks m) (ms bounds.horizon)
      (String.concat ", " (List.map (fun (p : Props.t) -> p.name) props))
      (if por then "" else " (POR off)");
    Printf.bprintf b
      "explored %d segments, %d distinct decision states, %d revisits \
       pruned, %d tie choices merged, %d jobs%s\n"
      r.expansions r.distinct r.revisits r.por_skipped r.jobs
      (if r.truncated then " [TRUNCATED: bounds hit]" else "");
    (match r.verdict with
    | `Ok ->
      Printf.bprintf b "no violation within bounds%s\n"
        (if r.truncated then " (exploration incomplete)" else "")
    | `Violation cex -> Buffer.add_string b (Counterexample.render m ~props cex));
    if rta then begin
      let bounds =
        Lint.Blocking_terms.declared_rta (Lint.Ctx.of_scenario scenario)
      in
      Buffer.add_string b "\nRTA cross-check (blocking terms from lint):\n";
      Array.iteri
        (fun i (t : Machine.mtask) ->
          let done_ = r.completed.(i) > 0 and observed = r.max_response.(i) in
          let obs =
            if done_ then Printf.sprintf "%8.3fms" (ms observed) else "-"
          in
          match bounds.(i) with
          | None ->
            Printf.bprintf b "  %-8s observed %10s  RTA: unbounded\n"
              t.task_name obs
          | Some bound ->
            Printf.bprintf b "  %-8s observed %10s  RTA bound %8.3fms  %s\n"
              t.task_name obs (ms bound)
              (if not done_ then "not observed"
               else if observed <= bound then "ok"
               else "EXCEEDED"))
        m.tasks
    end;
    Buffer.contents b
  in
  let json () =
    let open Util.Json in
    let verdict =
      match r.verdict with
      | `Ok -> [ ("verdict", String "ok") ]
      | `Violation (cex : Counterexample.t) ->
        [ ("verdict", String "violation"); ("prop", String cex.prop);
          ("message", String cex.message); ("at_ns", Int cex.at);
          ("choices", Int (List.length cex.choices)) ]
    in
    let response (t : Machine.mtask) =
      ( t.task_name,
        if r.completed.(t.idx) = 0 then Null else Int r.max_response.(t.idx) )
    in
    to_string
      (Obj
         ((("scenario", String scenario.name) :: verdict)
         @ [ ("expansions", Int r.expansions); ("distinct", Int r.distinct);
             ("revisits", Int r.revisits); ("por_skipped", Int r.por_skipped);
             ("truncated", Bool r.truncated); ("jobs", Int r.jobs);
             ( "max_response_ns",
               Obj (Array.to_list (Array.map response m.tasks)) ) ]))
    ^ "\n"
  in
  let sarif () =
    Lint.Sarif.render ~tool_name:"emeralds-mc"
      (match r.verdict with
      | `Ok -> []
      | `Violation (cex : Counterexample.t) ->
        [
          {
            Lint.Sarif.rule_id = "mc-" ^ cex.prop;
            level = Lint.Sarif.Error;
            message =
              Printf.sprintf "%s (at %.3fms, %d choices deep)" cex.message
                (ms cex.at) (List.length cex.choices);
            logical = Some scenario.name;
          };
        ])
    ^ "\n"
  in
  { Util.Doc.text; json; sarif; failed = r.verdict <> `Ok }
