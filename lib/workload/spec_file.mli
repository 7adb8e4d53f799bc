(** A plain-text task-set format, so workloads can live next to the
    application they describe (embedded designers know their resources
    statically, §3 — this is the file they would check in).

    Line-oriented:

    {v
    # engine controller, U = 0.93
    task 1 period=5ms   wcet=900us  name=injection
    task 2 period=20ms  wcet=2.5ms  deadline=15ms blocking=1
    task 3 period=1s    wcet=15ms   phase=100ms
    v}

    Durations are read by {!Model.Time.of_string} ([ns], [us], [ms],
    [s], decimals allowed, a bare number is nanoseconds); negative ones
    and ones past an int are refused.  [deadline] defaults to the
    period, [phase] to 0, [blocking] (blocking calls per period) to 0.
    '#' starts a comment; blank lines are ignored. *)

val parse : string -> (Model.Taskset.t, string) result
(** Parse the format from a string; the error names the offending
    line. *)

val load : string -> (Model.Taskset.t, string) result
(** Read and parse a file. *)

val to_string : Model.Taskset.t -> string
(** Render a task set back into the format ([parse] of the result
    round-trips). *)

val duration_of_string : string -> (Model.Time.t, string) result
(** Parse one duration token (exposed for the CLI). *)
