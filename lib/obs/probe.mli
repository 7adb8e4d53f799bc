(** Kernel tracepoints.

    The kernel no longer writes to {!Sim.Trace} directly: every event
    goes through a probe hub that fans it out to the built-in trace and
    to any number of subscribers (streaming metrics, flight recorders,
    live printers), each filtered by a per-category enable mask.

    The common case — no subscribers — is a single flag test on top of
    the plain [Sim.Trace.emit] call, so simulation output stays
    bit-identical to the pre-observability kernel and the
    instrumentation cost for disabled categories is near zero.  With
    subscribers, each event is stamped once: the built-in trace
    ({!Sim.Trace.record}) and every subscriber receive the same
    [stamped] record, and the subscribers are walked as an array, so
    fan-out allocates that record and nothing else. *)

type category =
  | Job  (** releases, completions, deadline misses *)
  | Sched  (** context switches, thread block/unblock *)
  | Sync  (** semaphores, priority inheritance *)
  | Ipc  (** mailbox messages, state-message reads/writes *)
  | Irq  (** interrupt arrivals *)
  | Overhead  (** charged kernel-overhead entries *)
  | Enforce  (** budget overruns, job kills, shed releases *)
  | Mem  (** block-pool allocations: grants, frees, OOM, leaks, quota *)
  | Ctl  (** control flow: per-job input words, branch decisions *)
  | Net  (** fabric: frames, retries, timeouts, arbitration delay *)
  | Meta  (** free-form notes *)

val all_categories : category list
(** In declaration order. *)

val category_name : category -> string
(** Lower-case stable name ("job", "sched", ...), used by
    [--categories] on the CLI and as the Perfetto "cat" field. *)

val category_of_name : string -> category option

val category_of_entry : Sim.Trace.entry -> category

type mask = int
(** Bitmask over categories. *)

val mask_of : category list -> mask
val all_mask : mask

type t

val create : trace:Sim.Trace.t -> unit -> t
(** A hub whose built-in trace subscriber is [trace]; it records every
    event (the kernel's aggregate counters are derived from it), and
    only extra subscribers are masked. *)

val subscribe : t -> mask:mask -> (Sim.Trace.stamped -> unit) -> unit
(** Attach a subscriber; it sees exactly the events in [mask], in
    emission order, after the built-in trace has recorded them.  The
    record it is handed is shared with the trace and the other
    subscribers: keep it, never rebuild it. *)

val emit : t -> at:Model.Time.t -> Sim.Trace.entry -> unit
