let ( let* ) = Result.bind

let keys =
  [ "period"; "wcet"; "deadline"; "phase"; "blocking"; "process"; "name" ]

let parse_task_line line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | "task" :: id :: words -> (
    match int_of_string_opt id with
    | None -> Error (Printf.sprintf "bad task id %S" id)
    | Some id -> (
      let* kv = Model.Kv.pairs ~keys words in
      let opt key read =
        match List.assoc_opt key kv with
        | None -> Ok None
        | Some v -> Result.map Option.some (read key v)
      in
      let* period = opt "period" (Model.Kv.dur ~least:1) in
      let* wcet = opt "wcet" (Model.Kv.dur ~least:1) in
      let* deadline = opt "deadline" (Model.Kv.dur ~least:1) in
      let* phase = opt "phase" (Model.Kv.dur ~least:0) in
      let* blocking_calls = opt "blocking" (Model.Kv.int ~least:0) in
      let* process = opt "process" Model.Kv.int in
      let name = List.assoc_opt "name" kv in
      match (period, wcet) with
      | None, _ -> Error "missing period="
      | _, None -> Error "missing wcet="
      | Some period, Some wcet -> (
        try
          Ok
            (Model.Task.make ?name ?deadline ?phase ?blocking_calls ?process
               ~id ~period ~wcet ())
        with Invalid_argument msg -> Error msg)))
  | _ -> Error "expected 'task <id> key=value...'"

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec collect lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim (strip_comment line) in
      if line = "" then collect (lineno + 1) acc rest
      else
        match parse_task_line line with
        | Ok task -> collect (lineno + 1) (task :: acc) rest
        | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
  in
  let* tasks = collect 1 [] lines in
  if tasks = [] then Error "no tasks in the file"
  else
    try Ok (Model.Taskset.of_list tasks)
    with Invalid_argument msg -> Error msg

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let to_string taskset =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "# %d tasks, U = %.3f\n" (Model.Taskset.size taskset)
       (Model.Taskset.utilization taskset));
  Array.iter
    (fun (t : Model.Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "task %d period=%s wcet=%s" t.id
           (Model.Time.to_string t.period)
           (Model.Time.to_string t.wcet));
      if t.deadline <> t.period then
        Buffer.add_string buf
          (Printf.sprintf " deadline=%s" (Model.Time.to_string t.deadline));
      if t.phase <> 0 then
        Buffer.add_string buf (Printf.sprintf " phase=%s" (Model.Time.to_string t.phase));
      if t.blocking_calls <> 0 then
        Buffer.add_string buf (Printf.sprintf " blocking=%d" t.blocking_calls);
      if t.process <> t.id then
        Buffer.add_string buf (Printf.sprintf " process=%d" t.process);
      if t.name <> Printf.sprintf "tau%d" t.id then
        Buffer.add_string buf (Printf.sprintf " name=%s" t.name);
      Buffer.add_char buf '\n')
    (Model.Taskset.tasks taskset);
  Buffer.contents buf
