type t = {
  id : int;
  name : string;
  period : Time.t;
  wcet : Time.t;
  deadline : Time.t;
  phase : Time.t;
  blocking_calls : int;
  process : int;
}

let make ?name ?deadline ?(phase = Time.zero) ?(blocking_calls = 0) ?process
    ~id ~period ~wcet () =
  let process = match process with Some p -> p | None -> id in
  let deadline = match deadline with Some d -> d | None -> period in
  let name = match name with Some n -> n | None -> Printf.sprintf "tau%d" id in
  if period <= 0 then invalid_arg "Task.make: period must be positive";
  if wcet <= 0 then invalid_arg "Task.make: wcet must be positive";
  if deadline <= 0 then invalid_arg "Task.make: deadline must be positive";
  if wcet > deadline then invalid_arg "Task.make: wcet exceeds deadline";
  if phase < 0 then invalid_arg "Task.make: negative phase";
  if blocking_calls < 0 then invalid_arg "Task.make: negative blocking_calls";
  { id; name; period; wcet; deadline; phase; blocking_calls; process }

let with_wcet t wcet =
  if wcet <= 0 then invalid_arg "Task.with_wcet: wcet must be positive";
  if wcet > t.deadline then invalid_arg "Task.with_wcet: wcet exceeds deadline";
  { t with wcet }

let utilization t = float_of_int t.wcet /. float_of_int t.period

let rm_compare a b =
  match compare a.period b.period with 0 -> compare a.id b.id | c -> c

let pp ppf t =
  Format.fprintf ppf "%s(P=%a c=%a d=%a)" t.name Time.pp t.period Time.pp
    t.wcet Time.pp t.deadline
