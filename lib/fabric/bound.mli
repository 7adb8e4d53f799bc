(** Static migration-cost bound: frames x transmission time, a
    worst-case retry budget, and the Table 1-derived re-admission
    overhead — computed before the run, checked against the observed
    failover latency by the fabric's crash-failover sweep (the Quest-V
    "predictable migration" claim as a falsifiable property). *)

val frame_time : bus:Fieldbus.Bus.t -> words:int -> Model.Time.t
(** Wire time of one frame with [words] payload words on this bus. *)

val max_frame_time : bus:Fieldbus.Bus.t -> Model.Time.t
(** Wire time of a maximal (2-word) frame. *)

val detect_bound :
  bus:Fieldbus.Bus.t -> hb_period:Model.Time.t -> miss_threshold:int ->
  Model.Time.t
(** Worst crash-to-detection latency:
    [(miss_threshold + 2) * hb_period + 2 * max_frame_time] — one
    period of invisibility, [miss_threshold] silent periods, one
    period of detector phase error, and in-flight/arbitration slack. *)

val image_words : int
(** Words in a serialized task image (id, period, wcet, deadline,
    phase). *)

val frames_per_task : int
(** Frames per migrated task image (begin + words + end). *)

val per_frame_bound : bus:Fieldbus.Bus.t -> Net.config -> Model.Time.t
(** Worst completion time of one reliably-sent frame:
    [(retry_limit + 1) * ack_timeout] plus the summed worst backoffs
    plus one maximal frame time. *)

val transfer_bound :
  bus:Fieldbus.Bus.t ->
  config:Net.config ->
  tasks:int ->
  targets:int ->
  Model.Time.t
(** Worst wire time to move [tasks] images to [targets] nodes
    (stop-and-wait serializes the frames, plus one commit frame per
    target). *)

val admission_overhead : cost:Sim.Cost.t -> tasks:int -> Model.Time.t
(** Re-admission cost on the target: per task, a syscall entry, a
    timer arm and one context switch from the cost model. *)

val failover_bound :
  bus:Fieldbus.Bus.t ->
  config:Net.config ->
  cost:Sim.Cost.t ->
  hb_period:Model.Time.t ->
  miss_threshold:int ->
  tasks:int ->
  targets:int ->
  Model.Time.t
(** [detect_bound + transfer_bound + admission_overhead]. *)
