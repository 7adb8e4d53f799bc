(** Discrete-event simulation engine.

    This stands in for the paper's 25 MHz Motorola 68040: a single
    virtual CPU whose time advances only when events fire.

    Events fire in (time, sequence number) order; an event takes the
    next number when it is scheduled, so events scheduled for the same
    instant fire in FIFO order of scheduling, which keeps kernel-entry
    sequences deterministic.  No two events share a key, so the order
    does not depend on how the queue is built.

    The queue is a binary min-heap kept in the event records (each
    knows its index, so a handle is its event and [cancel] is
    O(log n)), plus a front slot: one event earlier than everything in
    the heap.  An event scheduled earlier than everything queued takes
    the slot, and a front it displaces goes into the heap, so
    scheduling the next thing to happen and then firing it does no
    sifting (about 40% of the events queued on a long engine-preset
    run).  A fired or cancelled event leaves the queue at once, so
    nothing its callback captured stays reachable from it. *)

type t
type handle

val create : unit -> t

val now : t -> Model.Time.t
(** Current virtual time. *)

val schedule : t -> at:Model.Time.t -> (unit -> unit) -> handle
(** Schedule a callback; [at] must not be in the past.
    @raise Invalid_argument if [at < now t]. *)

val schedule_series :
  t -> count:int -> at:(int -> Model.Time.t) -> (unit -> unit) -> unit
(** [schedule_series t ~count ~at f] fires [f] at [at 0], [at 1], ...,
    [at (count - 1)], in the order and at the places among other events
    that [count] calls [schedule t ~at:(at i) f], made now in order of
    [i], would give: it takes their [count] sequence numbers at once.
    Only the next instant is queued; instant [i + 1] is queued when
    instant [i] fires, before [f] runs, so [f] raising leaves it
    queued.  So [pending] counts a series once, and a series cannot be
    cancelled.  [at] is called once per instant, when it is queued.
    @raise Invalid_argument if [count < 0] or [at 0 < now t], and, from
    the event of instant [i], if [at (i + 1) < at i]. *)

val schedule_after : t -> delay:Model.Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] = [schedule t ~at:(now t + delay) f];
    [delay] must be non-negative. *)

val cancel : t -> handle -> bool
(** Cancel a scheduled event; [false] if it already fired or was
    cancelled. *)

val pending : t -> int
(** Number of events still queued. *)

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
