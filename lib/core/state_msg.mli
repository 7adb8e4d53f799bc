(** State messages: EMERALDS' state-based IPC (§7).

    A state message is a single-writer, many-reader variable: the writer
    task publishes its latest physical state (a sensor reading, a
    setpoint) and readers always want the *most recent* value, never a
    queue of history.  EMERALDS implements them wait-free: an N-deep
    circular buffer where the writer stamps a sequence number, writes
    the payload into slot [seq mod N], and only then publishes [seq];
    readers copy the slot named by the latest published [seq].  Neither
    side ever blocks or takes a lock, so the cost is a constant-time
    copy — this is the property the §7 evaluation compares against
    mailbox IPC and semaphore-protected shared memory.

    A read is consistent provided the writer cannot lap the reader:
    with [depth] slots, a reader that begins copying slot [s] is safe as
    long as fewer than [depth - 1] writes complete during its copy.
    [required_depth] computes the bound.

    Besides the atomic [write]/[read] used by the kernel simulation
    (which charges their cost from the cost model), the module exposes a
    *step-wise* interface (one word copied per step) so property tests
    can drive adversarial interleavings and verify the no-torn-read
    guarantee — and verify that it fails when the depth bound is
    violated. *)

type t

val create : depth:int -> words:int -> t
(** [depth >= 2], [words >= 1].  Slots start zeroed with sequence 0
    published (readers of a never-written message see all zeroes). *)

val restart : t -> unit
(** Back to the state {!create} gave: zeroed slots, sequence 0.
    [Kernel.create] calls it on every state message a program names. *)

val id : t -> int
(** Identifier, numbered like kernel-object ids ({!Objects}); traces
    and the static verifier ({!Lint}) key state messages by it. *)

val depth : t -> int
val words : t -> int
val seq : t -> int
(** Last published sequence number (0 = never written). *)

val required_depth :
  max_read_time:Model.Time.t -> min_write_interval:Model.Time.t -> int
(** Minimal safe depth: [ceil (max_read_time / min_write_interval) + 2].
    @raise Invalid_argument unless both times are positive. *)

val write : t -> int array -> unit
(** Publish a new value atomically (kernel-simulation convenience).
    @raise Invalid_argument on a size mismatch. *)

val read : t -> int array
(** Copy of the latest published value. *)

(** {1 Step-wise interface (for interleaving tests)} *)

module Writer : sig
  type cursor

  val start : t -> int array -> cursor
  (** Begin writing a value: picks the next slot.  The value is not
      visible to readers until [finish]. *)

  val step : cursor -> bool
  (** Copy one word; [true] while copying remains. *)

  val finish : cursor -> unit
  (** Publish the sequence number.  All words must have been copied.
      @raise Invalid_argument otherwise. *)
end

module Reader : sig
  type cursor

  val start : t -> cursor
  (** Snapshot the latest published sequence and begin copying its
      slot. *)

  val step : cursor -> bool
  (** Copy one word; [true] while copying remains. *)

  val finish : cursor -> int array option
  (** The copied value, or [None] if the writer lapped this reader
      mid-copy (detected by re-checking the slot's write stamp —
      a correctly sized buffer never returns [None], which is exactly
      what the property tests assert). *)
end
