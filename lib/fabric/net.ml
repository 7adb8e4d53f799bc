(* Reliable delivery over the broadcast bus: per-destination send
   windows, per-seq acks, seeded-jitter exponential backoff, a retry
   cap that turns persistent loss into a link-suspect signal, and
   in-order exactly-once delivery at the receiver.

   The endpoint never touches any kernel: tracepoints go to an optional
   probe hub, so a fabric with probes disabled is bit-identical in
   behaviour (emission has no timing effect either way). *)

type config = {
  window : int; (* in-flight frames per destination *)
  retry_limit : int; (* retransmissions before giving up *)
  ack_timeout : Model.Time.t; (* silence before a retransmission *)
  backoff_base : Model.Time.t; (* k-th retry waits base * 2^k extra *)
  backoff_jitter : Model.Time.t; (* seeded uniform extra in [0, jitter] *)
}

let default_config =
  {
    window = 1;
    retry_limit = 4;
    ack_timeout = 2_000_000; (* 2 ms: >> one 111-bit frame at 1 Mbit/s *)
    backoff_base = 500_000;
    backoff_jitter = 200_000;
  }

type inflight = {
  f_msg : Wire.msg;
  mutable f_attempt : int;
  mutable f_acked : bool;
}

type peer = {
  mutable next_seq : int;
  mutable expect : int; (* next in-order seq from this peer *)
  inflight : (int, inflight) Hashtbl.t; (* seq -> in-flight send *)
  backlog : Wire.msg Queue.t; (* waiting for a window slot *)
  held : (int, Wire.msg) Hashtbl.t; (* out-of-order arrivals *)
  mutable suspect : bool;
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
  mutable on_suspect : (int -> unit) option;
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
    let p =
      {
        next_seq = 0;
        expect = 0;
        inflight = Hashtbl.create 4;
        backlog = Queue.create ();
        held = Hashtbl.create 4;
        suspect = false;
      }
    in
    Hashtbl.add t.peers id p;
    p

let id t = Fieldbus.Node.id t.node
let set_alive t v = t.alive <- v
let on_deliver t f = t.deliver <- Some f
let on_suspect t f = t.on_suspect <- Some f
let suspects t =
  Hashtbl.fold (fun id p acc -> if p.suspect then id :: acc else acc) t.peers []
  |> List.sort compare

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

let rec arm_ack_check t ~dst (fl : inflight) =
  ignore
    (Sim.Engine.schedule_after t.engine ~delay:t.config.ack_timeout (fun () ->
         if t.alive && not fl.f_acked then
           if fl.f_attempt >= t.config.retry_limit then begin
             (* retry budget exhausted: declare the link suspect and
                abandon the message (the layer above decides what a lost
                transfer means) *)
             t.timeouts <- t.timeouts + 1;
             emit t (Sim.Trace.Net_timeout { node = id t; seq = fl.f_msg.seq });
             let p = peer t dst in
             Hashtbl.remove p.inflight fl.f_msg.seq;
             p.suspect <- true;
             (match t.on_suspect with Some f -> f dst | None -> ());
             pump t ~dst
           end
           else
             ignore
               (Sim.Engine.schedule_after t.engine
                  ~delay:(backoff t fl.f_attempt)
                  (fun () ->
                    if t.alive && not fl.f_acked then begin
                      fl.f_attempt <- fl.f_attempt + 1;
                      t.retries <- t.retries + 1;
                      emit t
                        (Sim.Trace.Net_retry
                           {
                             node = id t;
                             seq = fl.f_msg.seq;
                             attempt = fl.f_attempt;
                           });
                      transmit t fl.f_msg;
                      arm_ack_check t ~dst fl
                    end))))

(* Move backlog into the window while slots are free. *)
and pump t ~dst =
  let p = peer t dst in
  while
    t.alive
    && Hashtbl.length p.inflight < t.config.window
    && not (Queue.is_empty p.backlog)
  do
    let m = Queue.pop p.backlog in
    let fl = { f_msg = m; f_attempt = 0; f_acked = false } in
    Hashtbl.replace p.inflight m.seq fl;
    t.unique_sends <- t.unique_sends + 1;
    transmit t m;
    arm_ack_check t ~dst fl
  done

let send t ~dst ~kind ~arg ~data =
  if dst = id t then invalid_arg "Net.send: cannot send to self";
  if t.alive then begin
    let p = peer t dst in
    let seq = p.next_seq in
    p.next_seq <- (seq + 1) land 0xffff;
    Queue.push { Wire.kind; src = id t; dst; seq; arg; data } p.backlog;
    pump t ~dst
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
  if m.seq >= p.expect && not (Hashtbl.mem p.held m.seq) then
    Hashtbl.replace p.held m.seq m;
  (* drain in order *)
  let rec drain () =
    match Hashtbl.find_opt p.held p.expect with
    | None -> ()
    | Some msg ->
      Hashtbl.remove p.held p.expect;
      p.expect <- (p.expect + 1) land 0xffff;
      (match t.deliver with Some f -> f msg | None -> ());
      drain ()
  in
  drain ()

let handle_ack t (m : Wire.msg) =
  let p = peer t m.src in
  match Hashtbl.find_opt p.inflight m.arg with
  | None -> () (* late ack after a timeout, or a duplicate *)
  | Some fl ->
    fl.f_acked <- true;
    Hashtbl.remove p.inflight m.arg;
    pump t ~dst:m.src

let create ?probe ~node ~rng ?(config = default_config) () =
  if config.window < 1 then invalid_arg "Net.create: window must be >= 1";
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
      on_suspect = None;
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
