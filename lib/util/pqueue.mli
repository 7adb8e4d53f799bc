(** Indexed binary min-heap with stable handles.

    Used by the RM-heap scheduler variant measured in the paper's
    Table 1 ([Readyq.Heap_queue]: a blocked task's handle removes it,
    and {!visit_count} is the table's measure) and by
    [Analysis.Demand]'s deadline sweep.  The discrete-event engine keeps
    its own queue, specialised to events ([Sim.Engine]). *)

type 'a t
type 'a handle

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** An empty heap ordered by [cmp] (minimum first). *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> 'a -> 'a handle
(** Insert a value; the handle can later cancel it.  O(log n). *)

val peek : 'a t -> 'a option
(** Minimum element, or [None] when empty.  O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the minimum.  O(log n). *)

val remove : 'a t -> 'a handle -> bool
(** Cancel the element behind a handle.  Returns [false] if it was
    already popped or removed.  O(log n). *)

val value : 'a handle -> 'a
(** The value the handle was created with (valid even after removal). *)

val in_heap : 'a handle -> bool
(** Whether the handle's element is still queued. *)

val visit_count : 'a t -> int
(** Cumulative count of node visits performed by sift operations since
    creation; the Table 1 experiment uses it to confirm O(log n)
    behaviour empirically. *)

val check : 'a t -> unit
(** Assert internal invariants (heap order, handle positions); for
    tests. *)
