(** Execution traces.

    Every kernel simulation appends typed entries here; experiments and
    tests query the trace for context-switch counts, deadline misses,
    per-category overhead totals, and schedule timelines (Figure 2 is
    rendered straight from a trace). *)

type ovh_category =
  | Ovh_sched_select
  | Ovh_sched_block
  | Ovh_sched_unblock
  | Ovh_sched_demote
  | Ovh_pi
  | Ovh_sem
  | Ovh_syscall
  | Ovh_ipc
  | Ovh_timer
  | Ovh_pool
  | Ovh_switch
  | Ovh_switch_as
  | Ovh_irq
      (** Interned kernel-overhead categories — one tag per Table 1
          charge site, so per-charge accounting is an array index
          instead of a hash of a freshly built string on the kernel's
          hot path.  Renderings ({!ovh_name}) match the historic
          string categories exactly, keeping CSV/timeline output and
          committed baselines unchanged. *)

val ovh_name : ovh_category -> string
(** Stable display name ("sched.select", "pi", "switch.as", ...). *)

val ovh_index : ovh_category -> int
(** Dense index in [0, ovh_count), declaration order. *)

val ovh_count : int

val ovh_categories : ovh_category list
(** In declaration order. *)

type net_dir =
  | Tx
  | Rx
  | Drop  (** lost on the wire *)
  | Corrupt  (** checksum failed at the receiver *)

type entry =
  | Job_release of { tid : int; job : int; deadline : Model.Time.t }
  | Job_complete of { tid : int; job : int; response : Model.Time.t }
  | Deadline_miss of { tid : int; job : int; lateness : Model.Time.t }
  | Context_switch of { from_tid : int option; to_tid : int option }
  | Thread_block of { tid : int; reason : string }
      (** [reason] is one of the kernel's literal block reasons
          (["sem"], ["delay"], ["mbox-empty"], ...), never built per
          event. *)
  | Thread_unblock of { tid : int }
  | Sem_acquired of { tid : int; sem : int }
  | Sem_blocked of { tid : int; sem : int }
  | Sem_released of { tid : int; sem : int }
  | Priority_inherit of { holder : int; from_tid : int }
  | Priority_restore of { holder : int }
  | Approach_parked of { tid : int; sem : int }
      (** §6.3.1: the thread was held back in [sem]'s approach queue
          (its pre-acquire blocking call completed while the semaphore
          was taken).  Carries the semaphore so observers can attribute
          the parked time as inheritance-induced blocking — the
          [Thread_block] reason alone does not say which semaphore. *)
  | Msg_sent of { tid : int; mailbox : int; words : int }
  | Msg_received of {
      tid : int;
      mailbox : int;
      words : int;
      queued_for : Model.Time.t;
          (* how long the message sat in the mailbox before delivery *)
    }
  | State_written of { tid : int; state : int; seq : int }
  | State_read of { tid : int; state : int; seq : int }
  | Interrupt of { irq : int }
  | Overhead of { category : ovh_category; cost : Model.Time.t }
  | Budget_overrun of {
      tid : int;
      job : int;
      used : Model.Time.t;
      budget : Model.Time.t;
    }  (** Enforcement: a job exceeded its execution budget. *)
  | Job_killed of { tid : int; job : int }
      (** Enforcement: a job was aborted by an overrun or miss policy. *)
  | Job_shed of { tid : int; job : int; reason : string }
      (** Enforcement: a release was dropped (skip-over shedding). *)
  | Block_alloc of { tid : int; pool : int; live : int }
      (** A block was granted; [live] is the pool-wide count after. *)
  | Block_free of { tid : int; pool : int; live : int }
  | Pool_oom of { tid : int; pool : int }
      (** An allocation was denied: the pool was exhausted. *)
  | Pool_leak of { tid : int; job : int; pool : int; count : int }
      (** [count] blocks were still live when the job completed; the
          kernel reclaims them after recording the leak. *)
  | Quota_exceeded of { tid : int; job : int; live : int; quota : int }
      (** Memory enforcement: a job exceeded its live-block quota. *)
  | Input_word of { tid : int; job : int; word : int64 }
      (** The seeded word whose bits decide the job's branches; emitted
          at job start, and only for programs containing branches, so
          branch-free traces are unchanged. *)
  | Branch of { tid : int; pc : int; idx : int; taken : bool }
      (** One branch decision: the [Br_input] at [pc] consumed input
          bit [idx]; [taken] means it fell through to the first arm. *)
  | Net_frame of { node : int; dir : net_dir; frame_id : int; words : int }
      (** Fabric: one frame event at a station. *)
  | Net_retry of { node : int; seq : int; attempt : int }
      (** Fabric: the reliable-delivery layer retransmitted a frame. *)
  | Net_timeout of { node : int; seq : int }
      (** Fabric: a send exhausted its retry budget — the sender marks
          the link suspect. *)
  | Net_arb of { frame_id : int; delay : Model.Time.t }
      (** Fabric: bus arbitration delay of one transmitted frame. *)
  | Note of string

type stamped = { at : Model.Time.t; entry : entry }

(** {2 Kinds}

    The closed set of event kinds, each named as in {!to_csv}'s [kind]
    column: one per constructor, and one per direction of [Net_frame]
    (["net-tx"], ["net-rx"], ["net-drop"], ["net-corrupt"]).  Counting
    events by kind is an array index — no rendering, no string hash. *)

val kind : entry -> int
(** Dense index in [0, kind_count). *)

val kind_count : int

val kind_name : int -> string
(** The CSV kind of an index ("release", "switch", "net-tx", ...).
    @raise Invalid_argument outside [0, kind_count). *)

val kind_of_name : string -> int option
(** Inverse of {!kind_name}; [None] for a string that is not a kind. *)

type t

val create : ?keep_entries:bool -> unit -> t
(** With [keep_entries:false] only the aggregate counters below are
    maintained — breakdown-utilization sweeps run thousands of
    simulations and must not retain per-event lists. *)

val emit : t -> at:Model.Time.t -> entry -> unit
(** Record one event.  Allocates its [stamped] record only when the
    entries are kept (or for the first deadline miss). *)

val record : t -> stamped -> unit
(** [emit] of an already stamped event, kept as is: lets a probe hub
    build one record per event and share it with its subscribers. *)

val entries : t -> stamped list
(** Chronological.  Empty when created with [keep_entries:false]. *)

val context_switches : t -> int
val deadline_misses : t -> int
val preemptions : t -> int
(** Switches where the outgoing thread was still ready. *)

val overhead_total : t -> Model.Time.t
val overhead_by_category : t -> (string * Model.Time.t) list
(** Sorted by category name. *)

val first_miss : t -> stamped option

val budget_overruns : t -> int
(** Number of [Budget_overrun] entries emitted. *)

val jobs_killed : t -> int
(** Number of [Job_killed] entries emitted. *)

val jobs_shed : t -> int
(** Number of [Job_shed] entries emitted. *)

val busy_time : t -> Model.Time.t
(** Total time threads spent computing (excludes overhead and idle);
    maintained by the kernel via [add_busy]. *)

val add_busy : t -> Model.Time.t -> unit

val set_outgoing_ready : t -> bool -> unit
(** Kernel hook: whether the thread about to be switched out is still
    ready, so the next [Context_switch] counts as a preemption. *)

val pp_timeline : Format.formatter -> t -> unit
(** Render release/switch/complete/miss entries chronologically, one
    per line. *)

val pp_stamped : Format.formatter -> stamped -> unit
(** One entry with its timestamp, as a single line. *)

val responses : t -> tid:int -> Model.Time.t list
(** Job response times of one task — the raw series for jitter
    statistics.  With [keep_entries:true] this is the exact
    chronological series.  Under [keep_entries:false] it no longer
    returns [] (as it did before the observability layer): a per-task
    {!Util.Hist} is maintained online in O(1) memory and the result is
    its sorted re-expansion — same length as the true series, each
    value a bucket representative within [2 / Util.Hist.sub_buckets]
    relative error, chronology not preserved. *)

val response_hist : t -> tid:int -> Util.Hist.t
(** The response-time distribution of one task as a histogram.  Under
    [keep_entries:false] this is the online histogram itself (O(1)
    memory); with [keep_entries:true] it is rebuilt from the exact
    entry list, so both modes agree up to bucket resolution. *)

val to_csv : t -> string
(** Machine-readable dump: [time_ns,kind,tid,detail] per entry, for
    external timeline tooling.  Empty (header only) when the trace was
    created with [keep_entries:false]. *)

val csv_of_stamped : stamped list -> string
(** The same CSV (header included) of any event list, e.g. a
    flight-recorder window. *)

val csv_fields : entry -> string * int * string
(** [(kind, tid, detail)] as rendered by {!to_csv} ([kind] is
    [kind_name (kind entry)]; [tid] is [-1] for entries with no owning
    task).  Formats the detail string, so per-event consumers that only
    need the kind should use {!kind}.  Exposed so external exporters
    (Perfetto, Prometheus) name events consistently with the CSV. *)
