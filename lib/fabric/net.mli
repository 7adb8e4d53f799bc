(** Reliable delivery over {!Fieldbus.Bus}, stop-and-wait.

    Each endpoint pairs a bus station with: one FIFO of sends per
    destination whose head is the one message in flight, per-seq
    acks, retransmission on ack silence with seeded-jitter exponential
    backoff, a retry cap that abandons the head and counts a timeout,
    and exactly-once delivery: a data message is delivered iff its seq
    is above the last one delivered from its sender, so duplicates
    from lost acks are re-acked and dropped, and an abandoned message
    leaves no gap that later ones wait on.  Failure detection is the
    cluster's heartbeat suspicion, not this layer's.

    Heartbeats and acks ride the unreliable path: one transmission,
    no seq tracking — losing one is the condition the failure detector
    is built to tolerate.

    Sequence numbers are 16-bit and the delivery test does not handle
    wraparound; a fabric run sends far fewer than 65k frames per
    peer pair. *)

type config = {
  retry_limit : int;  (** retransmissions before the message is abandoned *)
  ack_timeout : Model.Time.t;  (** ack silence before retransmitting *)
  backoff_base : Model.Time.t;  (** k-th retry adds [base * 2^k] *)
  backoff_jitter : Model.Time.t;  (** seeded uniform extra in [0, jitter] *)
}

val default_config : config
(** 4 retries, 2 ms ack timeout, 0.5 ms backoff base, 0.2 ms jitter —
    sized for a 1 Mbit/s CAN wire. *)

type t

val create :
  ?probe:Obs.Probe.t ->
  node:Fieldbus.Node.t ->
  rng:Util.Rng.t ->
  ?config:config ->
  unit ->
  t
(** Attach an endpoint to a station.  [probe] receives the [net]
    tracepoints ([Net_frame]/[Net_retry]/[Net_timeout]); without one
    the endpoint emits nothing and behaves identically.  [rng] seeds
    the backoff jitter (pass a split-stable stream). *)

val id : t -> int

val send : t -> dst:int -> kind:Wire.kind -> arg:int -> data:int -> unit
(** Queue one message for reliable delivery.  Messages to one
    destination are sent one at a time, in send order; each is
    acked or abandoned before the next goes on the wire. *)

val broadcast : t -> kind:Wire.kind -> arg:int -> data:int -> unit
(** Unreliable broadcast (heartbeats): transmitted once, never
    retried, delivered to every live endpoint. *)

val on_deliver : t -> (Wire.msg -> unit) -> unit
(** Receive handler: intact unicast messages in order, plus every
    broadcast (heartbeats included — dispatch on [msg.kind]). *)

val set_alive : t -> bool -> unit
(** A dead endpoint neither transmits (sends, retries, acks,
    heartbeats) nor receives — the station-side half of a node
    crash.  Dying drops its queued and in-flight sends, so a restarted
    endpoint starts each destination's queue afresh; sequence numbers
    continue. *)

val unique_sends : t -> int
(** First transmissions (data, acks and heartbeats; retries
    excluded). *)

val retries : t -> int

val timeouts : t -> int
(** Sends that exhausted their retry budget and were abandoned. *)
