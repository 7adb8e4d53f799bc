(** Simulated time.

    All kernel and analysis code measures time in integer nanoseconds.
    The paper works at microsecond granularity (its Table 1 overheads
    are fractions of a microsecond, e.g. 0.25 µs per EDF queue entry),
    so nanoseconds give exact integer arithmetic for every constant in
    the paper while native [int] (62 bits) still spans ~146 years. *)

type t = int
(** Nanoseconds.  Exposed as [int] on purpose: time values are used in
    tight scheduler loops and array indices; the naming conventions
    ([*_ns]) and constructors below keep units straight. *)

val zero : t
val us : int -> t
val ms : int -> t
val sec : int -> t

val of_us_f : float -> t
(** Round a fractional-microsecond constant (the paper's unit) to ns. *)

val to_us_f : t -> float
val to_ms_f : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> int -> t
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable: picks ns / µs / ms / s by magnitude. *)
