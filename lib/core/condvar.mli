(** Condition variables (§3 lists them among EMERALDS' synchronization
    primitives, with priority inheritance via the associated mutex).

    A condition variable pairs a wait queue with a monitor mutex; the
    wait atomically releases the mutex, blocks, and re-acquires on
    wake.  Semantics are Mesa-style: a woken waiter re-enters the
    monitor through a normal acquire, so the awaited predicate must be
    re-checked by the application (our thread programs are straight-
    line, so tests encode the re-check structurally).

    Because the re-acquisition is an [acquire] preceded by a blocking
    [wait], the §6.2 code-parser hint applies automatically: EMERALDS
    semaphores save the wake-up context switch whenever the signaller
    still holds the monitor — the common signal-inside-monitor idiom. *)

type t

val create : mutex:Types.sem -> unit -> t
(** A condition tied to its monitor mutex. *)

val mutex : t -> Types.sem

val wait : t -> Program.t
(** Program fragment: release the monitor, block, re-acquire.  The
    caller must hold the mutex before and holds it again after. *)

val signal : t -> Types.instr
(** Wake one waiter (or leave a pending signal). *)

val broadcast : t -> Types.instr
(** Wake every waiter. *)
