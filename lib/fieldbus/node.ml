type t = {
  bus : Bus.t;
  engine : Sim.Engine.t;
  node_id : int;
  mutable rx : int;
  mutable tx : int;
}

let create ~bus ~id () =
  Bus.register_node bus ~node:id;
  { bus; engine = Bus.engine bus; node_id = id; rx = 0; tx = 0 }

let id t = t.node_id
let engine t = t.engine
let frames_received t = t.rx
let frames_sent t = t.tx

let send t ~frame_id payload =
  t.tx <- t.tx + 1;
  Bus.send t.bus
    {
      Bus.frame_id;
      src_node = t.node_id;
      payload;
      enqueued_at = Sim.Engine.now t.engine;
    }

let send_at t ~at ~frame_id payload =
  ignore (Sim.Engine.schedule t.engine ~at (fun () -> send t ~frame_id payload))

let on_frame t ?(accept = fun _ -> true) callback =
  Bus.subscribe t.bus ~node:t.node_id (fun frame ->
      if accept frame then begin
        t.rx <- t.rx + 1;
        callback frame
      end)

let deliver_to_kernel t ~kernel ~irq ?accept ~capture () =
  on_frame t ?accept (fun frame ->
      capture frame;
      Emeralds.Kernel.raise_irq_at kernel ~at:(Sim.Engine.now t.engine) ~irq)
