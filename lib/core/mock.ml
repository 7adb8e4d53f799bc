let tcb ?prio ?deadline ?(state = Types.Ready) ~tid () =
  let prio = match prio with Some p -> p | None -> tid in
  let deadline =
    match deadline with Some d -> d | None -> Model.Time.ms (tid + 1)
  in
  let tcb =
    Types.fresh_tcb ~prio ~deadline
      (Model.Task.make ~id:tid ~period:(Model.Time.ms 10)
         ~wcet:(Model.Time.ms 1) ())
  in
  tcb.state <- state;
  tcb
