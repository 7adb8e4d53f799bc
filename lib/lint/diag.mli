(** Typed lint diagnostics.

    Every check emits these; [error] findings are program bugs the
    kernel would turn into a runtime [Invalid_argument], a deadlock, or
    a thread blocked forever — the CLI exits non-zero on any.
    [warning] findings are hazards the paper's discipline discourages
    (e.g. blocking while holding a lock extends the critical section
    unboundedly); [info] findings are derived facts worth surfacing
    (priority ceilings, unused objects). *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  check : string;       (** stable check identifier, e.g. ["lock-balance"] *)
  task : int option;    (** task id, [None] for cross-task findings *)
  pc : int option;      (** program counter within the task's program *)
  message : string;
}

val make : severity -> check:string -> ?task:int -> ?pc:int -> string -> t

val severity_label : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

val compare : t -> t -> int
(** Errors first, then by check name, task, pc — a stable report
    order. *)

val count : severity -> t list -> int
val errors : t list -> int

val to_json : t -> Util.Json.t
(** One diagnostic as a JSON object. *)
