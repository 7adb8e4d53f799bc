(** A report as the CLI prints it: one complete document per output
    format, trailing newline included, and the verdict its exit code
    reads.  Each library that owns a report builds one; the CLI prints
    the document its [--format] names. *)

type t = {
  text : unit -> string;
  json : unit -> string;
  sarif : unit -> string;
  failed : bool;  (** the run found what it checks for: exit 1 *)
}
