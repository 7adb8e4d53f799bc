let ( let* ) = Result.bind

let duration_of_string s =
  match Model.Time.of_string (String.trim s) with
  | Ok ns when ns >= 0 -> Ok ns
  | Ok _ -> Error (Printf.sprintf "negative duration %S" s)
  | Error `Syntax -> Error (Printf.sprintf "bad duration %S" s)
  | Error `Range ->
    Error
      (Printf.sprintf "duration %S is out of range: its nanoseconds do not \
                       fit in an int" s)

let string_of_duration t =
  if t mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (t / 1_000_000_000)
  else if t mod 1_000_000 = 0 then Printf.sprintf "%dms" (t / 1_000_000)
  else if t mod 1_000 = 0 then Printf.sprintf "%dus" (t / 1_000)
  else Printf.sprintf "%dns" t

type partial = {
  mutable period : Model.Time.t option;
  mutable wcet : Model.Time.t option;
  mutable deadline : Model.Time.t option;
  mutable phase : Model.Time.t option;
  mutable blocking : int option;
  mutable process : int option;
  mutable name : string option;
}

let parse_task_line ~lineno line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | "task" :: id_str :: attrs -> (
    match int_of_string_opt id_str with
    | None -> Error (Printf.sprintf "line %d: bad task id %S" lineno id_str)
    | Some id ->
      let p =
        {
          period = None;
          wcet = None;
          deadline = None;
          phase = None;
          blocking = None;
          process = None;
          name = None;
        }
      in
      let set_attr attr =
        match String.index_opt attr '=' with
        | None -> Error (Printf.sprintf "line %d: expected key=value, got %S" lineno attr)
        | Some eq -> (
          let key = String.sub attr 0 eq in
          let value = String.sub attr (eq + 1) (String.length attr - eq - 1) in
          let duration set =
            let* d = duration_of_string value in
            set d;
            Ok ()
          in
          match key with
          | "period" -> duration (fun d -> p.period <- Some d)
          | "wcet" -> duration (fun d -> p.wcet <- Some d)
          | "deadline" -> duration (fun d -> p.deadline <- Some d)
          | "phase" -> duration (fun d -> p.phase <- Some d)
          | "blocking" -> (
            match int_of_string_opt value with
            | Some b when b >= 0 ->
              p.blocking <- Some b;
              Ok ()
            | Some _ | None ->
              Error (Printf.sprintf "line %d: bad blocking count %S" lineno value))
          | "process" -> (
            match int_of_string_opt value with
            | Some pr ->
              p.process <- Some pr;
              Ok ()
            | None -> Error (Printf.sprintf "line %d: bad process id %S" lineno value))
          | "name" ->
            p.name <- Some value;
            Ok ()
          | other -> Error (Printf.sprintf "line %d: unknown key %S" lineno other))
      in
      let rec apply = function
        | [] -> Ok ()
        | attr :: rest ->
          let* () = set_attr attr in
          apply rest
      in
      let* () = apply attrs in
      (match (p.period, p.wcet) with
      | Some period, Some wcet -> (
        try
          Ok
            (Model.Task.make ?name:p.name ?deadline:p.deadline
               ?phase:p.phase ?blocking_calls:p.blocking ?process:p.process
               ~id ~period ~wcet ())
        with Invalid_argument msg ->
          Error (Printf.sprintf "line %d: %s" lineno msg))
      | None, _ -> Error (Printf.sprintf "line %d: missing period" lineno)
      | _, None -> Error (Printf.sprintf "line %d: missing wcet" lineno)))
  | _ -> Error (Printf.sprintf "line %d: expected 'task <id> key=value...'" lineno)

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
        match parse_task_line ~lineno line with
        | Ok task -> collect (lineno + 1) (task :: acc) rest
        | Error _ as e -> e)
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
           (string_of_duration t.period)
           (string_of_duration t.wcet));
      if t.deadline <> t.period then
        Buffer.add_string buf
          (Printf.sprintf " deadline=%s" (string_of_duration t.deadline));
      if t.phase <> 0 then
        Buffer.add_string buf (Printf.sprintf " phase=%s" (string_of_duration t.phase));
      if t.blocking_calls <> 0 then
        Buffer.add_string buf (Printf.sprintf " blocking=%d" t.blocking_calls);
      if t.process <> t.id then
        Buffer.add_string buf (Printf.sprintf " process=%d" t.process);
      if t.name <> Printf.sprintf "tau%d" t.id then
        Buffer.add_string buf (Printf.sprintf " name=%s" t.name);
      Buffer.add_char buf '\n')
    (Model.Taskset.tasks taskset);
  Buffer.contents buf
