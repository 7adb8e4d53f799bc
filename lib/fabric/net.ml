(* Reliable delivery over the broadcast bus, stop-and-wait: one FIFO
   of sends per destination whose head is in flight, per-seq acks,
   seeded-jitter exponential backoff, a retry cap that abandons the
   head and counts a timeout, and exactly-once delivery at the
   receiver.  Failure detection is the cluster's heartbeat suspicion,
   not this layer's.

   The endpoint never touches any kernel: tracepoints go to an optional
   probe hub, so a fabric with probes disabled is bit-identical in
   behaviour (emission has no timing effect either way). *)

type config = {
  retry_limit : int; (* retransmissions before giving up *)
  ack_timeout : Model.Time.t; (* silence before a retransmission *)
  backoff_base : Model.Time.t; (* k-th retry waits base * 2^k extra *)
  backoff_jitter : Model.Time.t; (* seeded uniform extra in [0, jitter] *)
}

let default_config =
  {
    retry_limit = 4;
    ack_timeout = 2_000_000; (* 2 ms: >> one 111-bit frame at 1 Mbit/s *)
    backoff_base = 500_000;
    backoff_jitter = 200_000;
  }

type peer = {
  mutable next_seq : int;
  mutable last : int; (* seq of the last message delivered from it *)
  sends : Wire.msg Queue.t; (* to it, in send order; the head is in flight *)
}

type t = {
  node : Fieldbus.Node.t;
  engine : Sim.Engine.t;
  config : config;
  rng : Util.Rng.t;
  probe : Obs.Probe.t option;
  peers : (int, peer) Hashtbl.t;
  mutable alive : bool;
  mutable deliver : (Wire.msg -> unit) option;
  mutable unique_sends : int; (* first transmissions, heartbeats included *)
  mutable retries : int;
  mutable timeouts : int;
}

let emit t entry =
  match t.probe with
  | None -> ()
  | Some p -> Obs.Probe.emit p ~at:(Sim.Engine.now t.engine) entry

let peer t id =
  match Hashtbl.find_opt t.peers id with
  | Some p -> p
  | None ->
    let p = { next_seq = 0; last = -1; sends = Queue.create () } in
    Hashtbl.add t.peers id p;
    p

let id t = Fieldbus.Node.id t.node

let set_alive t v =
  t.alive <- v;
  (* a dead endpoint's queued and in-flight sends die with it *)
  if not v then Hashtbl.iter (fun _ p -> Queue.clear p.sends) t.peers

let on_deliver t f = t.deliver <- Some f

let unique_sends t = t.unique_sends
let retries t = t.retries
let timeouts t = t.timeouts

let transmit t (m : Wire.msg) =
  emit t
    (Sim.Trace.Net_frame
       { node = id t; dir = Tx; frame_id = Wire.frame_id m; words = Wire.words m });
  Fieldbus.Node.send t.node ~frame_id:(Wire.frame_id m) (Wire.pack m)

(* Unreliable path: heartbeats (and acks) go on the wire once, no seq
   tracking, no retransmission. *)
let broadcast t ~kind ~arg ~data =
  if t.alive then begin
    t.unique_sends <- t.unique_sends + 1;
    transmit t
      { Wire.kind; src = id t; dst = Wire.broadcast_dst; seq = 0; arg; data }
  end

let backoff t attempt =
  (t.config.backoff_base * (1 lsl attempt))
  + Util.Rng.int_in t.rng ~lo:0 ~hi:(max 1 t.config.backoff_jitter)

(* [m] is still awaiting its ack: neither acked, abandoned nor dropped
   by a crash (each send is its own record). *)
let in_flight p m =
  match Queue.peek_opt p.sends with Some h -> h == m | None -> false

(* Put the head of [p]'s queue on the wire. *)
let rec start t p =
  match Queue.peek_opt p.sends with
  | None -> ()
  | Some m ->
    t.unique_sends <- t.unique_sends + 1;
    transmit t m;
    arm_ack_check t p m 0

and arm_ack_check t p m attempt =
  ignore
    (Sim.Engine.schedule_after t.engine ~delay:t.config.ack_timeout (fun () ->
         if in_flight p m then
           if attempt >= t.config.retry_limit then begin
             (* retry budget exhausted: abandon the message (the layer
                above decides what a lost transfer means) *)
             t.timeouts <- t.timeouts + 1;
             emit t (Sim.Trace.Net_timeout { node = id t; seq = m.seq });
             ignore (Queue.pop p.sends);
             start t p
           end
           else
             ignore
               (Sim.Engine.schedule_after t.engine ~delay:(backoff t attempt)
                  (fun () ->
                    if in_flight p m then begin
                      t.retries <- t.retries + 1;
                      emit t
                        (Sim.Trace.Net_retry
                           { node = id t; seq = m.seq; attempt = attempt + 1 });
                      transmit t m;
                      arm_ack_check t p m (attempt + 1)
                    end))))

let send t ~dst ~kind ~arg ~data =
  if dst = id t then invalid_arg "Net.send: cannot send to self";
  if t.alive then begin
    let p = peer t dst in
    let seq = p.next_seq in
    p.next_seq <- (seq + 1) land 0xffff;
    Queue.push { Wire.kind; src = id t; dst; seq; arg; data } p.sends;
    if Queue.length p.sends = 1 then start t p
  end

let handle_data t (m : Wire.msg) =
  let p = peer t m.src in
  (* ack every intact arrival, duplicates included (the first ack may
     have been lost) *)
  t.unique_sends <- t.unique_sends + 1;
  transmit t
    {
      Wire.kind = Wire.Ack;
      src = id t;
      dst = m.src;
      seq = m.seq;
      arg = m.seq;
      data = 0;
    };
  (* a sender moves on only past an ack or an abandoned message, so
     anything at or below the last delivered seq is a retransmission *)
  if m.seq > p.last then begin
    p.last <- m.seq;
    match t.deliver with Some f -> f m | None -> ()
  end

let handle_ack t (m : Wire.msg) =
  let p = peer t m.src in
  match Queue.peek_opt p.sends with
  | Some h when h.seq = m.arg ->
    ignore (Queue.pop p.sends);
    start t p
  | _ -> () (* late ack after a timeout, or a duplicate *)

let create ?probe ~node ~rng ?(config = default_config) () =
  if config.retry_limit < 0 then
    invalid_arg "Net.create: retry_limit must be >= 0";
  let t =
    {
      node;
      engine = Fieldbus.Node.engine node;
      config;
      rng;
      probe;
      peers = Hashtbl.create 8;
      alive = true;
      deliver = None;
      unique_sends = 0;
      retries = 0;
      timeouts = 0;
    }
  in
  Fieldbus.Node.on_frame node (fun frame ->
      if t.alive then
        match Wire.unpack frame.Fieldbus.Bus.payload with
        | None ->
          emit t
            (Sim.Trace.Net_frame
               {
                 node = id t;
                 dir = Corrupt;
                 frame_id = frame.Fieldbus.Bus.frame_id;
                 words = Array.length frame.Fieldbus.Bus.payload;
               })
        | Some m ->
          if m.dst = id t || m.dst = Wire.broadcast_dst then begin
            emit t
              (Sim.Trace.Net_frame
                 {
                   node = id t;
                   dir = Rx;
                   frame_id = frame.Fieldbus.Bus.frame_id;
                   words = Array.length frame.Fieldbus.Bus.payload;
                 });
            match m.kind with
            | Wire.Ack -> handle_ack t m
            | Wire.Heartbeat -> (
              match t.deliver with Some f -> f m | None -> ())
            | _ ->
              if m.dst = Wire.broadcast_dst then (
                match t.deliver with Some f -> f m | None -> ())
              else handle_data t m
          end);
  t
