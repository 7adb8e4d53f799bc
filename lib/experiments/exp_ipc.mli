(** §7 (reconstructed): state-message IPC vs the alternatives.

    The source text truncates before §7, but the design it evaluates is
    fully specified by the EMERALDS system: a sensor-owning task
    publishes its latest state; reader tasks want the freshest value.
    Three implementations are compared on identical traffic:

    - {b state message}: one wait-free N-deep buffer; the writer writes
      once, every reader reads lock-free — O(copy) each, no blocking,
      no per-reader work for the writer;
    - {b mailboxes}: the writer sends one message per reader (mailboxes
      are point-to-point queues), readers receive — per-reader copies
      plus blocking machinery;
    - {b shared memory + semaphore}: one shared buffer guarded by a
      mutex — copies are single, but every access pays
      acquire/release and risks priority-inheritance switches.

    Expected shape: state messages are cheapest and *flat* in the
    number of readers on the writer's side; mailbox cost grows linearly
    with readers; the semaphore variant sits between, with blocking
    spikes under contention. *)

type row = {
  readers : int;
  words : int;
  state_us : float;      (** kernel overhead per publish/consume cycle *)
  mailbox_us : float;
  shared_sem_us : float;
}

val measure : ?readers_list:int list -> ?words_list:int list -> unit -> row list
val render : row list -> string

(** {1 Freshness}

    The cost table above measures time; the deeper §7 argument is
    *semantic*: a control task wants the plant's current state, and a
    mailbox hands it the head of a queue — data that aged while queued
    — while a state message always hands it the newest sample.  With a
    writer faster than the reader, the mailbox's delivered-data age
    grows to its capacity times the writer period; the state message's
    stays below one writer period. *)

type freshness = {
  mechanism : string;
  mean_age_ms : float;  (** age of delivered data at consumption *)
  max_age_ms : float;
}

val measure_freshness : unit -> freshness list
(** A 10 ms writer and a 35 ms reader through a 3-deep state message
    and a 4-slot mailbox, over 400 ms under EDF. *)

val run : unit -> string
