(** Per-task lock balance.

    Walks each thread program's flattened control-flow DAG with a
    per-semaphore held-count interval — the least and greatest count
    over the paths reaching each point, joined at merges — and flags,
    as errors (input bits make every path feasible, so "on some path"
    findings are real executions):

    - a [Release] of a semaphore the job does not hold (the kernel
      raises [Invalid_argument] at run time);
    - a re-[Acquire] of a held mutex: the job blocks on itself;
    - a semaphore still held when the job ends: the *next* job of the
      same task starts with the mutex taken and self-deadlocks on its
      own first acquire. *)

val name : string

val run : Ctx.t -> Diag.t list
