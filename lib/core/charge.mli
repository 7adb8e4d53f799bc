(** The Table 1 charge of a kernel call: the one place that says which
    [Sim.Cost.t] entries a call pays.

    Every kernel call is a syscall entry (except the clock's [Delay],
    which the timer service handles directly) followed by a service
    charge.  Two calls have a cheaper path: a [Timed_wait] that finds a
    pending signal never arms its timer, and a [Recv] completed by a
    sender's hand-off pays only the mailbox's admin charge, not the
    copy.  So each call costs an interval [\[lo, hi\]] of nanoseconds.

    The kernel charges from {!entry}, {!service} and {!service_floor};
    the abstract interpreter, the overhead envelopes and the workload
    generator price programs with {!lo}, {!hi} and {!of_instr}.  The
    functions are keyed on the call kind and a payload word count, not
    on kernel objects, so a generator can price a segment without
    allocating the semaphores and mailboxes it will lower to. *)

type call =
  | User  (** compute, branches, jumps: no kernel entry, no charge *)
  | Sem  (** acquire or release *)
  | Wait
  | Timed_wait
  | Signal  (** signal or broadcast *)
  | Send
  | Recv
  | State_write
  | State_read
  | Delay
  | Pool  (** block alloc (granted or denied) or free *)

val call : Types.instr -> call
(** The call an instruction makes.  Structured forms ([If_input],
    [Repeat]) are [User]: they charge nothing of their own. *)

val entry : Sim.Cost.t -> call -> Model.Time.t
(** The syscall-entry part of the charge. *)

val service : Sim.Cost.t -> call -> words:int -> Model.Time.t
(** The service part on the call's costliest path.  [words] is the
    payload: sent or received words for [Send]/[Recv], the state
    message's size for [State_write]/[State_read]; other calls ignore
    it. *)

val service_floor : Sim.Cost.t -> call -> words:int -> Model.Time.t
(** The service part on the call's cheapest path. *)

val lo : Sim.Cost.t -> call -> words:int -> Model.Time.t
(** [entry + service_floor]. *)

val hi : Sim.Cost.t -> call -> words:int -> Model.Time.t
(** [entry + service]. *)

val of_instr :
  recv_words:(int -> int) -> Sim.Cost.t -> Types.instr -> Model.Time.t * Model.Time.t
(** [(lo, hi)] of one instruction.  [recv_words] maps a mailbox id to
    the largest payload a [Recv] on it may copy: the receiver pays for
    whatever a sender enqueued, which its own program cannot name. *)
