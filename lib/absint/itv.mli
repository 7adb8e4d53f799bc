(** The abstract domain: intervals over extended non-negative time.

    Every quantity the analyzer ([lib/absint]) derives — per-task
    execution demand, bounded self-suspension, per-semaphore hold
    times — is an interval [\[lo, hi\]] of nanoseconds whose upper end
    may be [Inf] (statically unbounded, e.g. a [Wait] no timeout
    limits).  Transfer functions [add] along paths; [join] is the
    convex hull (used to merge branch arms and alternative outcomes
    such as "pending signal: no wait" vs "block until the timeout",
    and to aggregate holds across tasks); [scale] multiplies a bounded
    loop's per-iteration charge by its bound; [widen] jumps a
    still-growing upper bound to [Inf] — the convergence hammer for
    the nested-acquire and loop fixpoints, which cyclic lock orders or
    iteration-carried state would otherwise keep inflating. *)

type bound = Fin of int | Inf

type t = { lo : int; hi : bound }

val zero : t
(** [\[0, 0\]]. *)

val const : int -> t
(** [\[c, c\]] (clamped at 0 from below — negative durations do not
    exist in the concrete semantics). *)

val range : int -> int -> t
(** [\[lo, hi\]].  @raise Invalid_argument if [hi < lo]. *)

val unbounded_from : int -> t
(** [\[lo, Inf)]. *)

val add : t -> t -> t
(** Pointwise sum; [Inf] absorbs. *)

val join : t -> t -> t
(** Convex hull: [\[min lo, max hi\]]. *)

val scale : int -> t -> t
(** [scale n itv]: [n] repetitions of a charge — pointwise product,
    [Inf] absorbing unless [n = 0].  The loop-bound multiplication of
    bounded-loop analysis.  @raise Invalid_argument if [n < 0]. *)

val diff : t -> t -> t
(** [diff a b]: the charge accumulated between a snapshot [b] and a
    later total [a], componentwise and clamped at 0.  Exact — not mere
    interval subtraction — whenever [a] was produced from [b] by
    interval additions and joins of such (addition distributes over
    the hull), which is how every accumulator in [Exec] evolves; this
    is what lets a loop's per-iteration delta be recovered from
    before/after totals and scaled.  An [Inf] on either side yields an
    [Inf] upper end, which over-approximates but never
    under-approximates a real charge. *)

val widen : t -> t -> t
(** [widen old next]: keep stable ends, send a still-rising upper
    bound to [Inf] and a still-falling lower bound to [0]. *)

val equal : t -> t -> bool

val is_bounded : t -> bool
(** [hi <> Inf]. *)

val hi_int : t -> int option
(** The upper bound when finite. *)

val dominates : t -> int -> bool
(** [dominates itv n]: the upper bound covers the concrete value [n]
    ([Inf] covers everything) — the soundness comparator every
    cross-validation check uses. *)

val to_string : t -> string
