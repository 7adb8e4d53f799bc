(** The model checker's visited set: exact, with COLLAPSE compression.

    A state's canonical encoding ({!State.key}) is the clock's residue
    modulo the hyperperiod followed by components: one per task, one
    for the non-IRQ object arrays and one for the IRQ slots, each
    written from the hyperperiod base [now - now mod H].  The set
    interns every distinct component once, per search, and keys a
    state by its {e index vector}: the residue, then each component's
    index.  Indices are equal exactly when component bytes are, and
    each kind of component is prefix-free, so two vectors are equal
    exactly when the keys are — unlike hash compaction or bitstate
    hashing, the set never merges two states (Holzmann, "State
    compression in SPIN", SPIN Workshop 1997).

    Building a child's vector from its parent's writes only what can
    have changed.  A task keeps the parent's index when its record is
    physically the parent's, the hyperperiod base is the same, and its
    bytes depend on nothing outside the record: it is not mid-read (the
    read delta reads the state message's sequence number) and its next
    release is not an unresolved [Choose] window (clamped to [now]).
    The object arrays keep the parent's index when they are equal.  The
    IRQ slots are always written.

    Components and vectors are stored as bytes in arenas with
    open-addressed indices; a lookup that finds its entry allocates
    nothing. *)

type t

type vec = private int array
(** A state's index vector: residue, one index per task, the object
    arrays' index, the IRQ slots' index.  Comparable with [=] among
    the vectors of one set. *)

val create : Machine.t -> t
(** An empty set for one search of the machine. *)

val root : vec
(** The parent vector of a state that has none: everything is
    written. *)

val visit : t -> parent:State.t -> pvec:vec -> State.t -> vec option
(** [visit v ~parent ~pvec st] adds [st], whose parent decision state
    [parent] has the vector [pvec] (or [root]): [Some] its vector when
    it is new, [None] when it was already in the set. *)

val vector : t -> parent:State.t -> pvec:vec -> State.t -> vec
(** [st]'s vector, as {!visit} builds it, interning its components but
    not adding the state. *)

val length : t -> int
(** Distinct states added. *)
