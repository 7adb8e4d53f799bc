(** The fault-tolerant multikernel fabric: several kernel shards on one
    shared engine and one fieldbus, a heartbeat failure detector with a
    bounded detection latency, fabric fault installation from a
    {!Fault.Plan}, and a crash-failover protocol — orphaned tasks are
    placed on survivors by first-fit over an RTA admission check,
    their images are moved as reliable ≤2-word frames, and tasks no
    survivor admits are shed (Koren–Shasha: drop load, not surviving
    deadlines).  A coordinator (a live shard that sees no lower id
    alive) fails a node over at each new suspicion of it, so a node
    failed over while alive, un-suspected and suspected again is
    failed over again, with only the tasks it gained since.  A
    restarted coordinator that suspects a still-dead node anew repeats
    that crash's failover, which finds no task and ends nothing.

    The fabric's bookkeeping (the assignment table) is shared state
    standing in for a small consensus layer; the protocol under test
    is the wire part — heartbeats, image transfer, acks, retries,
    commits. *)

type config = {
  hb_period : Model.Time.t;  (** heartbeat broadcast period *)
  miss_threshold : int;  (** silent periods before a peer is suspect *)
  net : Net.config;  (** reliable-delivery parameters *)
}

val default_config : config
(** 5 ms heartbeats, 3 missed beats to suspect, {!Net.default_config}. *)

type t

val create :
  ?probe:Obs.Probe.t ->
  ?config:config ->
  engine:Sim.Engine.t ->
  bus:Fieldbus.Bus.t ->
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  seed:int ->
  assignments:(int * Model.Task.t list) list ->
  unit ->
  t
(** Build one shard per [(node id, tasks)] assignment: a fieldbus
    station, a reliable endpoint, and (for non-empty task lists) a
    kernel on the shared engine.  Heartbeats are staggered by node id
    so the first instant stays deterministic.  [seed] drives the
    per-endpoint backoff jitter via split streams.  [probe], when
    given, receives the [net] tracepoints; without it the fabric runs
    bit-identically and emits nothing.
    @raise Invalid_argument on an empty assignment list, a node id
    outside [0..15], or a duplicate id (via the bus registry). *)

val check_plan : t -> Fault.Plan.t -> (unit, string) result
(** Every clause must be a fabric fault, and every node it names
    ([node-crash], [node-restart], both ends of [link-partition]) one
    of the cluster's.  Then the node clauses, in the order the engine
    fires them (by instant, then by clause order), must each change
    something: a [node-restart] of a node the plan has not crashed by
    then, or a [node-crash] of a node it has crashed and not restarted,
    fails.  [Error] names the first clause that fails.  {!install_plan}
    does not check: {!Preset.run} calls this first. *)

val install_plan : t -> Fault.Plan.t -> unit
(** Install the fabric clauses of a fault plan: [frame-drop] /
    [frame-corrupt] as deterministic counter-based wire hooks, one
    counter per clause (a frame is dropped when any [frame-drop] clause
    selects it; [frame-corrupt] clauses count the surviving frames),
    [link-partition] as a clock-gated link filter, [node-crash] /
    [node-restart] as scheduled events.  Also fixes the static
    failover bound for the planned crashes (worst over crashed nodes);
    non-fabric clauses are ignored ({!check_plan} refuses them).  An
    empty plan clears the hooks. *)

val run : t -> until:Model.Time.t -> unit
(** Advance the shared engine to the horizon. *)

val migrate : t -> tid:int -> dst:int -> bool
(** Planned migration: freeze the task at its next job boundary on its
    current owner, transfer its image, and re-admit on [dst].  Returns
    [false] (and sheds the task) when [dst]'s RTA check rejects the
    combined set.
    @raise Invalid_argument when no live shard owns [tid] or [dst] is
    down. *)

val score : t -> horizon:Model.Time.t -> Fault.Report.net_score
(** End-to-end scorecard: deadline misses across surviving shards
    after the last re-admission of any kind (planned migrations and
    failovers of live nodes included), the tasks of the initial
    assignment that no live node holds at the horizon and that were
    not shed (lost), frame/drop/corrupt/retry/timeout counts, retry
    amplification, bus utilization, the crash count, the crashes of
    already-suspected nodes, {!detect_latency}, {!failover_latency}
    and the static bound. *)

val static_bound : t -> Model.Time.t option
(** The bound fixed by {!install_plan} (None without planned crashes). *)

val detect_latency : t -> Model.Time.t option
(** The worst, over the crashes of nodes no live shard suspected when
    they crashed, of crash to the first suspicion of the node at or
    after it; [None] when no such crash was detected. *)

val failover_latency : t -> Model.Time.t option
(** The worst, over the crashes, of crash to the last re-admission of
    the first failover that started at or after it (to its start when
    the node held no task); [None] without a crash or when a crash has
    no such failover — a node still suspected when it crashes has
    none. *)

val migrations : t -> (int * int * Model.Time.t) list
(** [(tid, target node, re-admission instant)], in occurrence order. *)

val shed : t -> int list
(** Task ids dropped because no survivor admitted them. *)

val crashes : t -> (int * Model.Time.t) list
(** [(node, instant)] for every executed [node-crash]. *)

val shards_alive : t -> int list
(** Live node ids, ascending. *)

val kernel : t -> node:int -> Emeralds.Kernel.t option
(** The shard's current kernel ([None]: crashed or taskless).
    @raise Invalid_argument on an unknown node. *)

val kernels : t -> node:int -> Emeralds.Kernel.t list
(** Every kernel the node has run, in creation order: halted ones
    (crashed, or replaced when a re-admission re-provisioned the
    shard) first, then the live one.  Replaying their traces in this
    order yields one nondecreasing event stream per node — the
    crash-failover sweep's blame rebuild derives per-node attribution
    across a failover from exactly this. *)
