open Emeralds

type row = {
  readers : int;
  words : int;
  state_us : float;
  mailbox_us : float;
  shared_sem_us : float;
}

type mechanism = Baseline | State | Mailboxes | Shared_sem

let ms = Model.Time.ms
let horizon = ms 400
let writer_period = ms 10
let reader_period = ms 10 (* balanced: one read per reader per publish *)
let writer_cycles = 40.0

let cost = Sim.Cost.m68040

(* Total CPU time (kernel overhead + modelled copy computation)
   consumed by a run. *)
let cpu_cost k =
  let tr = Kernel.trace k in
  Model.Time.to_us_f (Sim.Trace.overhead_total tr)
  +. Model.Time.to_us_f (Sim.Trace.busy_time tr)

let build ~mechanism ~readers ~words =
  let writer_task =
    Model.Task.make ~id:1 ~period:writer_period ~wcet:(ms 1) ()
  in
  let reader_tasks =
    List.init readers (fun i ->
        Model.Task.make ~id:(2 + i) ~period:reader_period ~wcet:(ms 1) ())
  in
  let taskset = Model.Taskset.of_list (writer_task :: reader_tasks) in
  let payload = Program.words words in
  let sm = State_msg.create ~depth:4 ~words in
  let mailboxes =
    List.init readers (fun _ -> Objects.mailbox ~capacity:4 ())
  in
  let mutex = Objects.sem ~kind:Types.Emeralds () in
  (* The shared-memory copy itself costs what a state-message copy
     costs; the difference is purely the locking protocol around it. *)
  let copy_cost = Sim.Cost.state_write cost ~words in
  let programs (task : Model.Task.t) =
    let open Program in
    match mechanism with
    | Baseline -> [ compute (Model.Time.us 100) ]
    | State ->
      if task.id = 1 then
        [ compute (Model.Time.us 100); state_write sm payload ]
      else [ compute (Model.Time.us 100); state_read sm ]
    | Mailboxes ->
      if task.id = 1 then
        compute (Model.Time.us 100)
        :: List.map (fun mb -> send mb payload) mailboxes
      else
        [ compute (Model.Time.us 100); recv (List.nth mailboxes (task.id - 2)) ]
    | Shared_sem ->
      [
        compute (Model.Time.us 100);
        acquire mutex;
        compute copy_cost;
        release mutex;
      ]
  in
  let k =
    Kernel.create ~cost ~spec:Sched.Edf ~taskset ~programs ()
  in
  Kernel.run k ~until:horizon;
  k

(* Mailbox readers block when the queue is empty, which is the normal
   regime (reader period 2x writer period keeps queues bounded). *)
let measure_one ~readers ~words =
  let run mechanism = cpu_cost (build ~mechanism ~readers ~words) in
  let base = run Baseline in
  let per_cycle v = (v -. base) /. writer_cycles in
  {
    readers;
    words;
    state_us = per_cycle (run State);
    mailbox_us = per_cycle (run Mailboxes);
    shared_sem_us = per_cycle (run Shared_sem);
  }

let measure ?(readers_list = [ 1; 2; 4; 8; 16 ]) ?(words_list = [ 4; 16; 64 ])
    () =
  List.concat_map
    (fun words ->
      List.map (fun readers -> measure_one ~readers ~words) readers_list)
    words_list

let render rows =
  let t =
    Util.Tablefmt.create
      ~headers:
        [
          "readers";
          "words";
          "state msg (us)";
          "mailboxes (us)";
          "shared+sem (us)";
        ]
  in
  List.iter
    (fun r ->
      Util.Tablefmt.add_row t
        [
          string_of_int r.readers;
          string_of_int r.words;
          Util.Tablefmt.cell_f ~decimals:1 r.state_us;
          Util.Tablefmt.cell_f ~decimals:1 r.mailbox_us;
          Util.Tablefmt.cell_f ~decimals:1 r.shared_sem_us;
        ])
    rows;
  Util.Tablefmt.render t

(* ------------------------------------------------------------------ *)
(* Freshness: the age of the data a reader actually consumes *)

type freshness = { mechanism : string; mean_age_ms : float; max_age_ms : float }

let summarize_ages mechanism ages =
  match ages with
  | [] -> { mechanism; mean_age_ms = 0.0; max_age_ms = 0.0 }
  | _ ->
    {
      mechanism;
      mean_age_ms =
        List.fold_left ( +. ) 0.0 ages /. float_of_int (List.length ages);
      max_age_ms = List.fold_left max 0.0 ages;
    }

let measure_freshness () =
  let writer_task =
    (* deadline beyond the period: a writer stalled on a full mailbox is
       backpressure, not a deadline fault *)
    Model.Task.make ~id:1 ~period:(ms 10) ~deadline:(ms 500) ~wcet:(ms 1) ()
  in
  let reader_task =
    Model.Task.make ~id:2 ~period:(ms 35) ~deadline:(ms 500) ~wcet:(ms 1) ()
  in
  let taskset = Model.Taskset.of_list [ writer_task; reader_task ] in
  (* state messages *)
  let sm = State_msg.create ~depth:3 ~words:1 in
  let state_k =
    Kernel.create ~cost
      ~spec:Sched.Edf ~taskset
      ~programs:(fun (t : Model.Task.t) ->
        let open Program in
        if t.id = 1 then [ compute (Model.Time.us 100); state_write sm [| 0 |] ]
        else [ state_read sm; compute (Model.Time.us 100) ])
      ()
  in
  Kernel.run state_k ~until:horizon;
  (* age of a state read = read time - write time of the sequence read *)
  let write_times = Hashtbl.create 64 in
  let state_ages = ref [] in
  Sim.Trace.iter
    (fun (s : Sim.Trace.stamped) ->
      match s.entry with
      | State_written { seq; _ } -> Hashtbl.replace write_times seq s.at
      | State_read { seq; _ } -> (
        match Hashtbl.find_opt write_times seq with
        | Some w -> state_ages := Model.Time.to_ms_f (s.at - w) :: !state_ages
        | None -> () (* seq 0: nothing written yet *))
      | _ -> ())
    (Kernel.trace state_k);
  (* mailbox *)
  let mb = Objects.mailbox ~capacity:4 () in
  let mb_k =
    Kernel.create ~cost ~spec:Sched.Edf ~taskset
      ~programs:(fun (t : Model.Task.t) ->
        let open Program in
        if t.id = 1 then [ compute (Model.Time.us 100); send mb [| 0 |] ]
        else [ recv mb; compute (Model.Time.us 100) ])
      ()
  in
  Kernel.run mb_k ~until:horizon;
  let mb_ages =
    List.filter_map
      (fun (s : Sim.Trace.stamped) ->
        match s.entry with
        | Msg_received { queued_for; _ } -> Some (Model.Time.to_ms_f queued_for)
        | _ -> None)
      (Sim.Trace.entries (Kernel.trace mb_k))
  in
  [
    summarize_ages "state message" !state_ages;
    summarize_ages "mailbox" mb_ages;
  ]

let render_freshness rows =
  let t =
    Util.Tablefmt.create
      ~headers:[ "mechanism"; "mean data age (ms)"; "max data age (ms)" ]
  in
  List.iter
    (fun r ->
      Util.Tablefmt.add_row t
        [
          r.mechanism;
          Util.Tablefmt.cell_f r.mean_age_ms;
          Util.Tablefmt.cell_f r.max_age_ms;
        ])
    rows;
  Util.Tablefmt.render t

let run () =
  "Section 7 (reconstructed) -- IPC cost per publish/consume cycle\n"
  ^ "(kernel overhead + copy time attributable to the IPC mechanism)\n\n"
  ^ render (measure ())
  ^ "\nData freshness with a 10ms writer and a 35ms reader: the state\n"
  ^ "message always delivers the newest sample; the mailbox delivers\n"
  ^ "the head of a queue that aged while the reader was away.\n\n"
  ^ render_freshness (measure_freshness ())
