(** Kernel-object constructors.

    Resources are statically created before the kernel starts — the
    paper notes that embedded designers know at build time which
    threads, semaphores and mailboxes exist (no dynamic naming service,
    §3) — so objects are plain values that programs reference
    directly.  Each id space counts from 1 per domain and restarts at
    {!Ids.restart}, which every workload realization calls first. *)

val sem : ?kind:Types.sem_kind -> unit -> Types.sem
(** A mutual-exclusion semaphore, free until a task acquires it and
    then held by that task alone until it releases it: the kind the
    paper's §6 optimizations target, and the holder priority
    inheritance raises.  [kind] (default [Emeralds]) picks the
    implementation. *)

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
