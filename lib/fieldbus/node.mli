(** A fieldbus station: the per-node glue between the bus and whatever
    runs on the node (a full EMERALDS kernel, or a dumb
    sensor/actuator modelled as plain callbacks).

    The paper's distributed configurations (§2) are 5–10 such nodes;
    inter-node networking itself is out of the paper's scope, but the
    *intra-node* path — bus interrupt, kernel interrupt entry, state-
    message publication, driver-thread wake-up — is exactly what the
    kernel exists to schedule, so this module wires it end to end. *)

type t

val create : bus:Bus.t -> id:int -> unit -> t
(** Register station [id] on the bus.  One [create] per id:
    @raise Invalid_argument when [id] is already claimed. *)

val id : t -> int
val engine : t -> Sim.Engine.t
val frames_received : t -> int
val frames_sent : t -> int

val send : t -> frame_id:int -> int array -> unit
(** Queue a frame for arbitration, stamped with this node and the
    current bus time. *)

val send_at : t -> at:Model.Time.t -> frame_id:int -> int array -> unit
(** Schedule a future transmission (sensor sampling loops). *)

val on_frame : t -> ?accept:(Bus.frame -> bool) -> (Bus.frame -> unit) -> unit
(** Plain callback delivery (dumb nodes).  [accept] filters by frame
    (default: everything). *)

val deliver_to_kernel :
  t ->
  kernel:Emeralds.Kernel.t ->
  irq:int ->
  ?accept:(Bus.frame -> bool) ->
  capture:(Bus.frame -> unit) ->
  unit ->
  unit
(** Kernel delivery: accepted frames run [capture] (typically a
    [State_msg.write] of the payload — interrupt-context work) and
    then raise [irq] into the kernel, whose registered handler wakes
    the driver thread.  The kernel must already have a handler for
    [irq] (e.g. via [Emeralds.Driver.attach]). *)
