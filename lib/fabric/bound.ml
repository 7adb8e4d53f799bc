(* The static migration-cost bound — the Quest-V predictability claim
   as arithmetic a test can check against an observed run.

   failover_bound = detect + transfer + admission:

   - detect: a crash just after a heartbeat stays invisible for one
     full heartbeat period, the detector only declares a peer suspect
     after [miss_threshold] further silent periods, and it samples on
     its own tick, adding one more period of phase error; two maximal
     frame times cover a heartbeat still in flight at the crash and
     arbitration of the detector's own traffic.

   - transfer: every image frame is stop-and-wait with a retry budget;
     attempt k is resolved within [ack_timeout] (success: the data
     frame, its arbitration and its ack all fit well inside it — that
     is what [ack_timeout] is sized for) or retried after
     [backoff_base * 2^k + jitter].  Frames of one transfer serialize,
     so the bound sums over all frames of all migrated images.

   - admission: per re-admitted task, the Table 1-derived cost of
     re-entering it into the target's scheduler (syscall entry, timer
     arm, one context switch of slack). *)

let frame_time ~bus ~words =
  (* a synthetic frame only to price the wire; ids are irrelevant *)
  ignore words;
  Fieldbus.Bus.transmission_time bus
    {
      Fieldbus.Bus.frame_id = 0;
      src_node = 0;
      payload = Array.make words 0;
      enqueued_at = 0;
    }

let max_frame_time ~bus = frame_time ~bus ~words:2

let detect_bound ~bus ~hb_period ~miss_threshold =
  ((miss_threshold + 2) * hb_period) + (2 * max_frame_time ~bus)

(* Worst completion time of one reliably-sent frame. *)
let per_frame_bound ~bus (c : Net.config) =
  let backoffs = ref 0 in
  for k = 0 to c.retry_limit - 1 do
    backoffs := !backoffs + (c.backoff_base * (1 lsl k)) + c.backoff_jitter
  done;
  ((c.retry_limit + 1) * c.ack_timeout) + !backoffs + max_frame_time ~bus

(* Frames in one task image: begin + payload words + end. *)
let image_words = 5 (* id, period, wcet, deadline, phase *)
let frames_per_task = 2 + image_words

let transfer_bound ~bus ~config ~tasks ~targets =
  let frames = (tasks * frames_per_task) + targets (* one commit each *) in
  frames * per_frame_bound ~bus config

let admission_overhead ~(cost : Sim.Cost.t) ~tasks =
  tasks * (cost.syscall_entry + cost.timer_service + cost.context_switch)

let failover_bound ~bus ~config ~cost ~hb_period ~miss_threshold ~tasks
    ~targets =
  detect_bound ~bus ~hb_period ~miss_threshold
  + transfer_bound ~bus ~config ~tasks ~targets
  + admission_overhead ~cost ~tasks
