(** Kernel-object constructors.

    Resources are statically created before the kernel starts — the
    paper notes that embedded designers know at build time which
    threads, semaphores and mailboxes exist (no dynamic naming service,
    §3) — so objects are plain values that programs reference
    directly.  Each id space counts from 1 per domain and restarts at
    {!Ids.restart}, which every workload realization calls first. *)

val sem : ?kind:Types.sem_kind -> ?initial:int -> unit -> Types.sem
(** A semaphore with [initial] free units (default 1 — a mutex).
    Priority inheritance and the §6 optimizations apply to mutexes;
    a counting semaphore ([initial > 1]) has no single holder to
    inherit into, so its acquire/release degrade gracefully to plain
    blocking semantics (the paper notes its schemes are "more generally
    applicable to counting semaphores" — the hint machinery still
    saves the switch when the next unit is known to be taken).
    @raise Invalid_argument if [initial < 1]. *)

val waitq : unit -> Types.waitq
(** An event wait queue (the target of blocking calls preceding
    acquire, and the substrate of condition variables). *)

val mailbox : capacity:int -> unit -> Types.mailbox
(** A bounded message-passing mailbox.  [capacity >= 1]. *)

val pool : block_bytes:int -> capacity:int -> unit -> Types.pool
(** A K0BA-style fixed-size block pool: [capacity] blocks of
    [block_bytes] each, allocated and freed in O(1).  Allocation never
    blocks; an exhausted pool denies the request (an OOM event).
    @raise Invalid_argument if [block_bytes < 1] or [capacity < 1]. *)
