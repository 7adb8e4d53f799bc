(** Doubly-linked list with externally held nodes.

    This is the queue structure of the EMERALDS scheduler (§5.1): both
    the unsorted EDF queue and the priority-sorted RM queue keep blocked
    *and* ready tasks in one list, and the semaphore implementation
    (§6.2) relies on O(1) removal, O(1) neighbour insertion, and O(1)
    position swap of two nodes (the priority-inheritance place-holder
    trick).  Nodes are first-class so a TCB can remember its own node. *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val value : 'a node -> 'a
val push_front : 'a t -> 'a -> 'a node
val push_back : 'a t -> 'a -> 'a node

val insert_before : 'a t -> 'a node -> 'a -> 'a node
(** [insert_before t anchor v] links a new node holding [v] immediately
    before [anchor].  [anchor] must belong to [t]. *)

val remove : 'a t -> 'a node -> unit
(** Unlink a node.  The node must currently belong to [t]; removing it
    twice is a programming error (checked by assertion). *)

val swap : 'a t -> 'a node -> 'a node -> unit
(** Exchange the positions of two distinct nodes of [t] in O(1),
    handling the adjacent case.  Node identities (and hence any external
    pointers to them) are preserved. *)

val first : 'a t -> 'a node option
val last : 'a t -> 'a node option
val next : 'a t -> 'a node -> 'a node option
val prev : 'a t -> 'a node -> 'a node option

val mem : 'a t -> 'a node -> bool
(** Whether the node currently belongs to [t]. *)

val iter : ('a -> unit) -> 'a t -> unit
val iter_nodes : ('a node -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val find_node : ('a -> bool) -> 'a t -> 'a node option
val to_list : 'a t -> 'a list

val check : 'a t -> unit
(** Assert link consistency and length; for tests. *)
