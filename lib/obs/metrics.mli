(** Streaming kernel metrics.

    A probe subscriber that folds the event stream into O(1)-memory
    statistics: counters per event kind, per-task response-time and
    blocking-time histograms, interrupt-to-dispatch latency, a
    released-but-incomplete job depth gauge, and per-category overhead
    distributions.  Because everything is maintained online, breakdown
    sweeps and fault-injection runs get p50/p95/p99/max even with
    [keep_entries:false].  Counting an event is an array increment at
    its {!Sim.Trace.kind} — no detail string is formatted and no kind
    string hashed per event. *)

type t

val create : unit -> t

val observe : t -> Sim.Trace.stamped -> unit
(** Fold one event; pass to {!Probe.subscribe} (any mask). *)

val attach : t -> Probe.t -> unit
(** [subscribe] shorthand with all categories enabled. *)

val counter : t -> string -> int
(** Events seen of one CSV kind ("release", "switch", "miss", ...);
    0 when never seen or not a kind. *)

val counters : t -> (string * int) list
(** All non-zero counters, sorted by kind: for a kept trace of the same
    stream, exactly its {!Sim.Trace.to_csv} row count per kind. *)

val response : t -> tid:int -> Util.Hist.t option
(** Response-time distribution of one task, ns. *)

val response_tids : t -> int list
(** Tasks with at least one completed job, ascending. *)

val blocking : t -> tid:int -> Util.Hist.t option
(** Durations between a task's block and its next unblock, ns. *)

val blocking_tids : t -> int list

val live_blocks : t -> pool:int -> Util.Hist.t option
(** Distribution of one pool's pool-wide live-block count, sampled at
    every grant and free; its max is the observed high-water the
    analyzer's peak-live interval must dominate. *)

val live_pools : t -> int list
(** Pools with at least one allocation event, ascending. *)

val irq_latency : t -> Util.Hist.t
(** Interrupt-to-dispatch latency: for every [Interrupt], the delay
    until the next [Context_switch], ns.  Interrupts with no
    subsequent switch are not counted. *)

val ready_depth : t -> Util.Hist.t
(** Distribution of the released-but-incomplete job count, sampled at
    every release/completion/kill. *)

val overhead : t -> (string * Util.Hist.t) list
(** Per-category kernel-overhead cost distributions, sorted. *)

val net_counter : t -> node:int -> string -> int
(** Fabric events of one kind at one station: ["tx"], ["rx"],
    ["drop"], ["corrupt"], ["retry"], ["timeout"]; 0 when never
    seen. *)

val net_nodes : t -> int list
(** Stations with at least one fabric event, ascending. *)

val merge : t -> t -> t
(** Pointwise merge (counter sums, histogram merges); commutative and
    associative.  In-flight pairing state (open blocks, pending
    interrupts) is dropped, so merge completed runs only. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable digest: counters, then one histogram line per
    series. *)
