(** Periodic real-time task specification (§2 of the paper: workloads
    are concurrent periodic tasks with a mix of short (<10 ms), medium
    (10–100 ms) and long (>100 ms) periods; relative deadline equals the
    period unless stated otherwise). *)

type t = private {
  id : int;            (** unique within a task set *)
  name : string;
  period : Time.t;
  wcet : Time.t;       (** worst-case execution time c_i, excluding OS overhead *)
  deadline : Time.t;   (** relative deadline d_i; defaults to the period *)
  phase : Time.t;      (** release offset of the first job *)
  blocking_calls : int;
      (** blocking system calls per period beyond the implicit
          end-of-period block; the paper assumes half the tasks make one
          such call ([t = 1.5 (t_b + t_u + 2 t_s)], §5.1) *)
  process : int;
      (** protection domain (§3: multi-threaded processes with full
          memory protection).  Threads of the same process share an
          address space; switching between processes costs an extra
          address-space switch.  Defaults to the task id — every task
          its own process. *)
}

val make :
  ?name:string ->
  ?deadline:Time.t ->
  ?phase:Time.t ->
  ?blocking_calls:int ->
  ?process:int ->
  id:int ->
  period:Time.t ->
  wcet:Time.t ->
  unit ->
  t
(** Validates [period > 0], [0 < wcet], [wcet <= deadline],
    [deadline > 0], [phase >= 0], [blocking_calls >= 0].
    @raise Invalid_argument otherwise. *)

val with_wcet : t -> Time.t -> t
(** Same task with a different WCET (used when scaling workloads to a
    target utilization). *)

val utilization : t -> float
(** [wcet / period]. *)

val rm_compare : t -> t -> int
(** Shorter period first (rate-monotonic priority order); ties broken
    by id so the order is total. *)

val pp : Format.formatter -> t -> unit
