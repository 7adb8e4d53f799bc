(** Discrete-event simulation engine.

    This stands in for the paper's 25 MHz Motorola 68040: a single
    virtual CPU whose time advances only when events fire.  Events
    scheduled for the same instant fire in FIFO order of scheduling,
    which keeps kernel-entry sequences deterministic. *)

type t
type handle

val create : unit -> t

val now : t -> Model.Time.t
(** Current virtual time. *)

val schedule : t -> at:Model.Time.t -> (unit -> unit) -> handle
(** Schedule a callback; [at] must not be in the past.
    @raise Invalid_argument if [at < now t]. *)

val schedule_after : t -> delay:Model.Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] = [schedule t ~at:(now t + delay) f];
    [delay] must be non-negative. *)

val cancel : t -> handle -> bool
(** Cancel a scheduled event; [false] if it already fired or was
    cancelled. *)

val pending : t -> int
(** Number of events still queued. *)

val pending_times : t -> Model.Time.t list
(** Fire times of every queued event, sorted ascending — the
    event-queue part of a kernel state snapshot ([Kernel.Snapshot]
    hashes these as residues relative to the current clock). *)

val step : t -> bool
(** Fire the earliest event.  [false] when the queue is empty. *)

val run_until : t -> Model.Time.t -> unit
(** Fire every event with time <= the horizon (events newly scheduled
    within the horizon are fired too), then set the clock to the
    horizon. *)

val run_bounded : t -> max_events:int -> bool
(** Fire events until none remain or [max_events] have fired,
    whichever comes first.  [true] when the queue drained — the safe
    harness around [run] for tests and examples, where a
    self-perpetuating event pattern (e.g. a fault plan that keeps
    rescheduling itself) must fail the bound instead of hanging.
    @raise Invalid_argument if [max_events < 0]. *)
