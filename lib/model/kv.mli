(** key=value words: the one reader of fault-plan clauses
    ([Fault.Plan]) and task-file lines ([Workload.Spec_file]).  Each
    refusal is an [Error] message that the caller prefixes with the
    clause or line it read. *)

val pairs :
  keys:string list -> string list -> ((string * string) list, string) result
(** [pairs ~keys words] splits each word at its first ['='] and trims
    both sides, keeping word order.  Refused, at the first offending
    word: one without ['='] (["malformed pair"]), a key not in [keys]
    (["unknown key"], listing [keys]) and a key given twice
    (["repeated key"]). *)

val int :
  ?least:int -> ?most:int -> string -> string -> (int, string) result
(** [int key v] reads [v] by [int_of_string]; refused when it is not
    an integer or lies outside [[least, most]] (by default any int). *)

val dur :
  ?least:Time.t -> ?most:Time.t -> string -> string -> (Time.t, string) result
(** [dur key v] reads [v] by {!Time.of_string}; refused when it is not
    a duration, when its nanoseconds do not fit in an int (["out of
    range"]) or when it lies outside [[least, most]]. *)
