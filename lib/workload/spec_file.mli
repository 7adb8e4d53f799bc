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

    Each [key=value] word is read by {!Model.Kv}, the reader fault
    plans use: a malformed pair, an unknown key and a repeated key are
    refused alike.  Durations are read by {!Model.Time.of_string}
    ([ns], [us], [ms], [s], decimals allowed, a bare number is
    nanoseconds) and written by {!Model.Time.to_string}.  [period],
    [wcet] and [deadline] must be at least 1 ns, [phase] and
    [blocking] (blocking calls per period) at least 0; a duration
    past an int is refused as out of range.  [period] and [wcet] are
    required; [deadline] defaults to the period, [phase] and
    [blocking] to 0, [process] to the task id and [name] to [tau<id>].
    A wcet above the deadline and a repeated task id are refused too.
    '#' starts a comment; blank lines are ignored. *)

val parse : string -> (Model.Taskset.t, string) result
(** Parse the format from a string; the error names the offending
    line. *)

val load : string -> (Model.Taskset.t, string) result
(** Read and parse a file. *)

val to_string : Model.Taskset.t -> string
(** Render a task set back into the format ([parse] of the result
    round-trips). *)
