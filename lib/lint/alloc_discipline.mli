(** Per-task block-pool allocation discipline.

    Walks each thread program's flattened control-flow DAG with a
    held-block interval per pool (the memory analogue of
    {!Lock_balance}): counts and running peaks carry a [lo, hi] pair
    joined at merges, so "certain" claims use the floor and "possible"
    ones the ceiling.  Flags:

    - a [Free] of a pool the job holds no block of — double-free or
      free-of-unallocated; the kernel raises [Invalid_argument] at run
      time (error);
    - blocks still held when the job ends: a leak repeated every job,
      reported with the number of jobs until the pool runs dry
      (error — the kernel reclaims and records it, but the program is
      wrong);
    - a per-task peak demand above the pool's capacity: the task
      cannot obtain its blocks even with the pool to itself, so a
      denied allocation is certain (error);
    - a combined peak demand (sum of per-task peaks) above capacity:
      preemption can interleave jobs at their peaks and exhaust the
      pool (warning — a quota/sizing infeasibility, not a certainty).

    The analyzer's interval version of the same quantity lives in
    [Absint.Exec] ([peak_live]); the campaign's [mem] oracle checks
    the two against the kernel's observed high-water marks. *)

val name : string

(** A per-job leak prediction for one (task, pool): [must] when the
    blocks stay held on every path ([blocks] is the floor over paths),
    else a may-leak of up to [blocks] on some path. *)
type leak = {
  task : int;  (** task id *)
  pool : Emeralds.Types.pool;
  blocks : int;
  must : bool;
}

val leaks : Ctx.t -> leak list
(** Every leak prediction, by task in RM order, then by pool id: the
    values {!run}'s leak diagnostics are written from, and what the
    campaign's [mem] oracle checks the kernel's reclaimed leaks
    against. *)

val run : Ctx.t -> Diag.t list
