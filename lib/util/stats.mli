(** Summary statistics and least-squares fits for the experiment
    harness.  The paper reports averages over 500 workloads (Figures 3–5)
    and linear overhead models of the form [a + b*n] (Table 1); this
    module provides both. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** Requires a non-empty list. *)

val mean : float list -> float
(** Requires a non-empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 1]; nearest-rank on the sorted
    list.  Requires a non-empty list. *)

type linear_fit = {
  intercept : float;  (** a in y = a + b x *)
  slope : float;      (** b in y = a + b x *)
  r2 : float;         (** coefficient of determination *)
}

val fit_linear : (float * float) list -> linear_fit
(** Ordinary least squares on (x, y) points.  Requires at least two
    points with distinct x. *)
