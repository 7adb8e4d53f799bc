(** Bounded flight recorder.

    EMERALDS targets 32–128 KB of total memory, so post-mortem tracing
    must be bounded: a fixed-capacity ring of stamped events with a
    byte-accounted modeled footprint (capacity * {!slot_bytes}).  The
    ring records continuously and freezes at the first armed trigger
    (deadline miss, budget overrun, job kill, pool exhaustion, quota
    breach or network ack timeout), so the dump is the last [capacity]
    events *ending at* the triggering entry — callers check the
    footprint against [Footprint.envelope]. *)

type trigger =
  | On_miss  (** [Deadline_miss] *)
  | On_overrun  (** [Budget_overrun] *)
  | On_kill  (** [Job_killed] *)
  | On_oom  (** [Pool_oom] — a block-pool allocation failed *)
  | On_quota  (** [Quota_exceeded] — per-job live-block quota breached *)
  | On_net_timeout  (** [Net_timeout] — reliable-delivery ack expired *)

val slot_bytes : int
(** Modeled bytes per ring slot (48: timestamp + tagged payload),
    the unit of the byte accounting. *)

type t

val create : bytes:int -> triggers:trigger list -> unit -> t
(** Ring sized to [bytes / slot_bytes] slots (at least 1).
    @raise Invalid_argument when [bytes < slot_bytes]. *)

val capacity : t -> int
(** Slot count. *)

val footprint_bytes : t -> int
(** Modeled footprint, [capacity * slot_bytes] <= requested bytes. *)

val record : t -> Sim.Trace.stamped -> unit
(** Append one event (overwriting the oldest when full).  Once a
    trigger has fired the recorder is frozen and this is a no-op.
    Allocation-free: the ring stores the record it is handed, and the
    armed triggers are a bit set tested with one match on the entry. *)

val attach : t -> Probe.t -> unit
(** Subscribe to all categories of [probe]. *)

val total_recorded : t -> int
(** Events ever offered before freezing (>= what the ring holds). *)

val triggered : t -> Sim.Trace.stamped option
(** The entry that froze the recorder, if any. *)

val dump : t -> Sim.Trace.stamped list
(** Ring contents, oldest first.  After a trigger this is the frozen
    snapshot whose last element is the triggering entry; before (or
    without) one it is the live window. *)
