(** The transition relation: deterministic cranking between
    nondeterministic decision points.

    Exploration alternates two moves.  At a {e decision point} — an
    unresolved arrival window that must be forked over before time may
    pass, or a dispatch tie among ready tasks with equal scheduler keys
    — {!expand} offers the open {!choice}s.  Expanding that decision
    state again with [~choice] commits one of them and then runs the
    kernel model forward deterministically — delivering due releases,
    timers, interrupts and deadline probes, dispatching the unique best
    ready task, executing its instructions, advancing virtual time —
    up to the next decision point.  Each expansion copies its parent
    state once.

    Everything between two decision points is a single canonical
    schedule (same-instant kernel events fire in a fixed order —
    releases by rank, then timers, then interrupts by source — exactly
    as the discrete-event engine's FIFO tie-breaking does), so visited
    pruning at decision points loses no reachable decision states.
    A property probe runs after every micro-step inside the segment,
    so violations inside a deterministic stretch are still caught at
    the state where they first hold.

    A micro-step pays only for what it changed.  The working copy
    keeps the running task's index, the next instant at which anything
    falls due and the number of open arrival windows, computed when
    [expand] copies its parent and refreshed only after a write to a
    task's next release, timed mode or deadline probe, or to an
    interrupt slot; so the running task is read in O(1), nothing is
    delivered before that instant, and no window is searched for while
    none is open.  Each probe is told the {!State.scope} written since
    the last passing probe on the search path: the parts, the tasks
    whose records changed and the objects whose slots, waiters or
    holdings changed.  An expansion starts from what its parent's left
    unprobed, so no probe re-checks what no step since the last one
    wrote, and {!Props.check_changed} visits only that. *)

type choice =
  | Arm_irq of { src : int; at : int }
      (** interrupt source [src] next fires at absolute [at] *)
  | Arm_task of { idx : int; at : State.nr }
      (** sporadic task arrival ([At t]) or silence ([Never]) *)
  | Tie of int  (** dispatch this task among equal-key candidates *)
  | Take_branch of { idx : int; taken : bool }
      (** outcome of the data-dependent branch task [idx] sits on:
          where the kernel consults a bit of its per-job input word,
          the checker forks over both outcomes *)

type expansion = {
  state : State.t;  (** at the decision point (or final state) *)
  notes : (int * State.note) list;  (** time-stamped, chronological *)
  violation : (string * string * int) option;
      (** (property, message, time) — cranking stopped here *)
  next : [ `Branch of choice list | `Leaf ];
      (** [`Leaf]: quiescent up to the horizon, or stopped on a
          violation *)
  unprobed : State.scope;
      (** what was written since the last passing probe: the
          [~unprobed] of each child's expansion *)
}

(** A deliberate weakening of the transition relation, so the
    campaign can show that the properties catch a wrong kernel rule. *)
type lesion =
  | Keep_inherited
      (** releasing a semaphore keeps the holder's inherited rank and
          deadline instead of resetting them to its base before
          re-inheriting from what it still holds — the campaign's [mc]
          ablation, which {!Props.pi} must catch *)

val expand :
  ?emit:(int -> Sim.Trace.entry -> unit) ->
  ?lesion:lesion ->
  ?unprobed:State.scope ->
  ?check:(changed:State.scope -> State.t -> (string * string) option) ->
  ?check_note:(at:int -> State.note -> (string * string) option) ->
  ?choice:choice ->
  horizon:int ->
  Machine.t ->
  State.t ->
  expansion
(** Copy the state, commit [choice] (one of the [`Branch] list its
    expansion offered; none for the initial state) and crank to the
    next decision point.  Committing never advances time; the crank
    does.  [check] probes every intermediate state, told what was
    written since the last passing probe: [unprobed], the parent
    expansion's [unprobed] (default {!State.everything}, for a state
    no probe has passed), plus this expansion's writes before its
    first probe, and this expansion's writes since its previous probe
    after that.  The scope is not copied for [check]: a probe must not
    keep it.  [check_note] sees every emitted note.
    The first [Some (prop, message)] aborts the crank and surfaces as
    [violation].  [emit] receives replayable {!Sim.Trace} entries
    (used by counterexample replay); without it no entry is built. *)

val pp_choice : Machine.t -> Format.formatter -> choice -> unit
val choice_to_string : Machine.t -> choice -> string
