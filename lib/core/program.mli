(** Thread-body construction.

    A task's job executes a program of instructions with structured
    control flow: straight-line effect instructions, data-dependent
    two-way branches ([if_input], decided per job by the kernel's
    seeded input word) and bounded loops ([repeat]).  [flatten] lowers
    a program to the forward-only instruction DAG the kernel
    interprets, and [derive_hints] plays the role of EMERALDS' code
    parser (§6.2.1): it annotates every blocking call with the
    semaphore of the immediately following [acquire] — degrading to
    [None] whenever the paths leaving the call disagree. *)

type t = Types.instr list

val compute : Model.Time.t -> Types.instr
val acquire : Types.sem -> Types.instr
val release : Types.sem -> Types.instr
val wait : Types.waitq -> Types.instr

(** [timed_wait wq d] blocks for a signal, but proceeds after [d]
    elapses even without one (whichever comes first). *)
val timed_wait : Types.waitq -> Model.Time.t -> Types.instr

val signal : Types.waitq -> Types.instr
val broadcast : Types.waitq -> Types.instr
val send : Types.mailbox -> int array -> Types.instr
val recv : Types.mailbox -> Types.instr
val state_write : State_msg.t -> int array -> Types.instr
val state_read : State_msg.t -> Types.instr
val delay : Model.Time.t -> Types.instr

val alloc : Types.pool -> Types.instr
(** Allocate one fixed-size block from a pool (O(1), non-blocking;
    an exhausted pool denies the request). *)

val free : Types.pool -> Types.instr
(** Return one block to a pool.  Freeing a block the job does not hold
    is a program bug the kernel faults on (like releasing a semaphore
    the thread does not hold). *)

val if_input : t -> t -> Types.instr
(** [if_input then_ else_]: a data-dependent branch.  Each executed
    branch consumes the next bit of the job's input word (drawn by the
    kernel from its input seed and recorded in the trace): 1 runs
    [then_], 0 runs [else_].  Replaying the same seed replays the same
    path. *)

val repeat : int -> t -> Types.instr
(** [repeat n body]: run [body] exactly [n] times.  [n] is a static
    bound — analyses multiply per-iteration cost by it.  Negative
    counts are rejected. *)

val critical : Types.sem -> Model.Time.t -> t
(** [critical s c] = acquire; compute c; release — a method invocation
    on a semaphore-protected object (§6's motivating pattern). *)

val condition_wait : Types.waitq -> Types.sem -> t
(** The condition-variable wait pattern: release the monitor lock,
    block on the condition, re-acquire.  The derived hint on the [wait]
    is exactly the paper's instrumented parameter, so EMERALDS
    semaphores save the re-acquisition context switch. *)

val is_blocking : Types.instr -> bool
(** Whether the instruction can block the caller.  Structured forms
    answer for their contents: a branch or loop is blocking when any
    reachable leaf is. *)

val iter_leaves : (Types.instr -> unit) -> t -> unit
(** Visit every leaf (effect) instruction of a program, descending
    into branch arms and loop bodies.  Loop bodies are visited once,
    not [n] times — use this for object-usage scans, not for cost. *)

val worst_path : (Types.instr -> int) -> t -> int
(** [worst_path f p]: the largest sum of [f] over the leaves one run of
    [p] executes — a branch takes its larger arm, a loop multiplies its
    body by the count.  The fold behind every per-job worst-case count
    and charge envelope. *)

val flatten : t -> Types.instr array
(** Lower structured control flow to the executable form: branches
    become [Br_input]/[Jump] with absolute forward targets and loops
    are unrolled, so the result is a forward-only DAG.  Rejects
    programs whose flat form exceeds 65536 instructions and programs
    that already contain lowered instructions. *)

val has_branches : Types.instr array -> bool
(** Whether lowered code contains any [Br_input] — i.e. whether a job
    consumes input bits and the kernel must draw an input word. *)

val derive_hints : Types.instr array -> Types.sem option array
(** For each position of a *flattened* program, the semaphore the next
    blocking call will acquire — [Some s] only when every path from
    the position (through non-blocking instructions, across branches)
    first blocks at [Acquire s].  Any path disagreement yields [None]:
    a hint must never steer the thread into the wrong approach queue.
    Positions holding non-blocking instructions get [None]. *)

val words : int -> int array
(** A zeroed payload of [n] words, for [send]/[state_write]. *)
