(* The multikernel fabric: several kernel shards on one shared engine,
   a heartbeat failure detector, fabric fault installation, and the
   crash-failover / task-migration protocol.

   One deliberate modelling simplification: the fabric's bookkeeping
   (task assignment table, which crashes have been handled) is a
   replicated view held as shared OCaml state.  A real fabric would
   gossip it; here the protocol under test is the *wire* part —
   heartbeats, image transfer, acks, retries, commits — and the
   bookkeeping stands in for a consensus layer the paper's 5-10-node
   deployments would keep trivially consistent. *)

open Emeralds

type config = {
  hb_period : Model.Time.t;
  miss_threshold : int; (* silent periods before a peer is suspect *)
  net : Net.config;
}

let default_config =
  { hb_period = 5_000_000; miss_threshold = 3; net = Net.default_config }

type shard = {
  sh_id : int;
  sh_node : Fieldbus.Node.t;
  sh_ep : Net.t;
  mutable sh_kernel : Kernel.t option; (* None: crashed or no tasks *)
  mutable sh_origin : Model.Time.t; (* current kernel's time zero *)
  mutable sh_retired : Kernel.t list; (* halted kernels, stats retained *)
  mutable sh_tasks : Model.Task.t list;
  mutable sh_alive : bool;
  sh_last_seen : (int, Model.Time.t) Hashtbl.t;
  mutable sh_suspected : int list; (* peers this shard considers dead *)
  (* image receive state: in-order delivery makes this a simple
     sequential accumulator *)
  mutable sh_rx_tid : int option;
  mutable sh_rx_words : int list; (* reversed *)
  mutable sh_pending_admit : Model.Task.t list;
}

type t = {
  engine : Sim.Engine.t;
  bus : Fieldbus.Bus.t;
  cost : Sim.Cost.t;
  spec : Sched.spec;
  config : config;
  shards : shard array;
  probe : Obs.Probe.t option;
  mutable plan : Fault.Plan.t;
  mutable corrupted : int;
  mutable crashes : (int * Model.Time.t) list; (* node, instant *)
  mutable detections : (int * Model.Time.t) list; (* node, first detection *)
  mutable migrations : (int * int * Model.Time.t) list;
      (* tid, target, re-admission instant *)
  mutable shed_tids : int list;
  mutable handled : int list; (* dead nodes already failed over *)
  mutable failover_ends : (int * Model.Time.t) list;
      (* dead node -> last commit-driven re-admission *)
  mutable static_bound : Model.Time.t option;
}

let now t = Sim.Engine.now t.engine

let shard t id =
  match
    Array.find_opt (fun sh -> sh.sh_id = id) t.shards
  with
  | Some sh -> sh
  | None -> invalid_arg (Printf.sprintf "Cluster: unknown node %d" id)

let serialize_task (task : Model.Task.t) =
  [ task.id; task.period; task.wcet; task.deadline; task.phase ]

let deserialize_task = function
  | [ id; period; wcet; deadline; phase ] ->
    Model.Task.make ~id ~period ~wcet ~deadline ~phase ()
  | ws ->
    invalid_arg
      (Printf.sprintf "Cluster: task image has %d words" (List.length ws))

(* ------------------------------------------------------------------ *)
(* Admission *)

let rta_admits t tasks =
  match tasks with
  | [] -> true
  | _ -> (
    match Model.Taskset.of_list tasks with
    | exception Invalid_argument _ -> false (* duplicate ids *)
    | ts ->
      let rows = Analysis.Overhead.inflate ~cost:t.cost ~spec:t.spec ts in
      Analysis.Rta.feasible rows)

(* (Re)provision a shard's kernel with a task list from [origin]. *)
let provision t sh ~origin tasks =
  (match sh.sh_kernel with
  | Some k ->
    Kernel.halt k;
    sh.sh_retired <- k :: sh.sh_retired
  | None -> ());
  sh.sh_tasks <- tasks;
  sh.sh_origin <- origin;
  sh.sh_kernel <-
    (match tasks with
    | [] -> None
    | _ ->
      Some
        (Kernel.create ~engine:t.engine ~origin ~cost:t.cost ~spec:t.spec
           ~taskset:(Model.Taskset.of_list tasks) ()))

(* ------------------------------------------------------------------ *)
(* Failover *)

let alive_view t sh =
  Array.to_list t.shards
  |> List.filter (fun p ->
         p.sh_id <> sh.sh_id
         && p.sh_alive
         && not (List.mem p.sh_id sh.sh_suspected))

let is_coordinator t sh =
  sh.sh_alive
  && List.for_all (fun (p : shard) -> p.sh_id > sh.sh_id) (alive_view t sh)

let send_image ~(from_ : shard) ~dst (task : Model.Task.t) =
  let words = serialize_task task in
  Net.send from_.sh_ep ~dst ~kind:Wire.Task_begin ~arg:task.id
    ~data:(List.length words);
  List.iteri
    (fun i w -> Net.send from_.sh_ep ~dst ~kind:Wire.Task_word ~arg:i ~data:w)
    words;
  Net.send from_.sh_ep ~dst ~kind:Wire.Task_end ~arg:task.id ~data:0

let failover t ~(coord : shard) ~dead =
  if not (List.mem dead t.handled) then begin
    t.handled <- dead :: t.handled;
    let dead_sh = shard t dead in
    let orphans =
      List.sort
        (fun a b -> compare (Model.Task.utilization b) (Model.Task.utilization a))
        dead_sh.sh_tasks
    in
    dead_sh.sh_tasks <- [];
    let shard_util sh =
      List.fold_left
        (fun acc task -> acc +. Model.Task.utilization task)
        0.0 sh.sh_tasks
    in
    (* least-loaded survivor first (ties by id): spreads the orphans and
       keeps the coordinator from silently absorbing every transfer *)
    let survivors =
      List.sort
        (fun a b -> compare (shard_util a, a.sh_id) (shard_util b, b.sh_id))
        (coord :: alive_view t coord)
    in
    let placement =
      Analysis.Partition.first_fit ~bins:survivors
        ~fits:(fun sh placed task ->
          rta_admits t (sh.sh_tasks @ placed @ [ task ]))
        orphans
    in
    let targets = Hashtbl.create 4 in
    List.iter
      (fun ((task : Model.Task.t), target) ->
        match target with
        | None ->
          (* no survivor admits it: Koren-Shasha shedding, the load is
             dropped rather than the surviving deadlines *)
          t.shed_tids <- task.id :: t.shed_tids
        | Some sh ->
          if sh.sh_id = coord.sh_id then begin
            (* local re-admission: no wire transfer needed *)
            let origin =
              now t + Bound.admission_overhead ~cost:t.cost ~tasks:1
            in
            provision t sh ~origin (sh.sh_tasks @ [ task ]);
            t.migrations <- (task.id, sh.sh_id, origin) :: t.migrations;
            t.failover_ends <-
              (dead, origin)
              :: List.remove_assoc dead t.failover_ends
          end
          else begin
            send_image ~from_:coord ~dst:sh.sh_id task;
            Hashtbl.replace targets sh.sh_id ()
          end)
      placement;
    (* one commit per remote target, tagged with the dead node so the
       re-admission instant lands in the right failover record *)
    Hashtbl.iter
      (fun dst () ->
        Net.send coord.sh_ep ~dst ~kind:Wire.Commit ~arg:dead ~data:0)
      targets
  end

(* ------------------------------------------------------------------ *)
(* Receive path *)

let handle_commit t sh ~dead =
  let admitted = List.rev sh.sh_pending_admit in
  sh.sh_pending_admit <- [];
  match admitted with
  | [] -> ()
  | _ ->
    let origin =
      now t + Bound.admission_overhead ~cost:t.cost ~tasks:(List.length admitted)
    in
    provision t sh ~origin (sh.sh_tasks @ admitted);
    List.iter
      (fun (task : Model.Task.t) ->
        t.migrations <- (task.id, sh.sh_id, origin) :: t.migrations)
      admitted;
    let prev = List.assoc_opt dead t.failover_ends in
    let ends =
      match prev with Some p -> Model.Time.max p origin | None -> origin
    in
    t.failover_ends <- (dead, ends) :: List.remove_assoc dead t.failover_ends

let handle_msg t sh (m : Wire.msg) =
  match m.kind with
  | Wire.Heartbeat -> Hashtbl.replace sh.sh_last_seen m.src (now t)
  | Wire.Ack -> () (* consumed by the reliable layer *)
  | Wire.Task_begin ->
    sh.sh_rx_tid <- Some m.arg;
    sh.sh_rx_words <- []
  | Wire.Task_word -> sh.sh_rx_words <- m.data :: sh.sh_rx_words
  | Wire.Task_end -> (
    match sh.sh_rx_tid with
    | None -> () (* stray end: transfer was abandoned by a timeout *)
    | Some _ ->
      sh.sh_rx_tid <- None;
      let words = List.rev sh.sh_rx_words in
      sh.sh_rx_words <- [];
      (match deserialize_task words with
      | exception Invalid_argument _ -> () (* short image: drop it *)
      | task -> sh.sh_pending_admit <- task :: sh.sh_pending_admit))
  | Wire.Commit -> handle_commit t sh ~dead:m.arg

(* ------------------------------------------------------------------ *)
(* Failure detector *)

let check_peers t sh =
  if sh.sh_alive then
    Array.iter
      (fun (p : shard) ->
        if p.sh_id <> sh.sh_id then begin
          let last =
            Option.value ~default:0 (Hashtbl.find_opt sh.sh_last_seen p.sh_id)
          in
          let silent = now t - last in
          let dead_for = t.config.miss_threshold * t.config.hb_period in
          if silent > dead_for then begin
            if not (List.mem p.sh_id sh.sh_suspected) then begin
              sh.sh_suspected <- p.sh_id :: sh.sh_suspected;
              if not (List.mem_assoc p.sh_id t.detections) then
                t.detections <- (p.sh_id, now t) :: t.detections;
              if is_coordinator t sh then failover t ~coord:sh ~dead:p.sh_id
            end
          end
          else if List.mem p.sh_id sh.sh_suspected then
            (* fresh heartbeat from a suspect: a restarted node rejoins *)
            sh.sh_suspected <-
              List.filter (fun id -> id <> p.sh_id) sh.sh_suspected
        end)
      t.shards

let rec tick t sh () =
  if sh.sh_alive then begin
    Net.broadcast sh.sh_ep ~kind:Wire.Heartbeat ~arg:0 ~data:0;
    check_peers t sh
  end;
  ignore
    (Sim.Engine.schedule_after t.engine ~delay:t.config.hb_period (tick t sh))

(* ------------------------------------------------------------------ *)
(* Fault installation *)

let crash t ~node ~at =
  ignore
    (Sim.Engine.schedule t.engine ~at (fun () ->
         let sh = shard t node in
         if sh.sh_alive then begin
           sh.sh_alive <- false;
           Net.set_alive sh.sh_ep false;
           (match sh.sh_kernel with
           | Some k ->
             Kernel.halt k;
             sh.sh_retired <- k :: sh.sh_retired;
             sh.sh_kernel <- None
           | None -> ());
           t.crashes <- (node, at) :: t.crashes
         end))

let restart t ~node ~at =
  ignore
    (Sim.Engine.schedule t.engine ~at (fun () ->
         let sh = shard t node in
         if not sh.sh_alive then begin
           (* cold rejoin: no retained tasks, heartbeats resume and
              peers un-suspect; the node is a migration target again *)
           sh.sh_alive <- true;
           Net.set_alive sh.sh_ep true;
           sh.sh_rx_tid <- None;
           sh.sh_rx_words <- [];
           sh.sh_pending_admit <- [];
           t.handled <- List.filter (fun id -> id <> node) t.handled
         end))

let install_plan t plan =
  t.plan <- plan;
  let drop_one_in =
    List.find_map
      (function Fault.Plan.Frame_drop { one_in } -> Some one_in | _ -> None)
      plan
  in
  let corrupt_one_in =
    List.find_map
      (function
        | Fault.Plan.Frame_corrupt { one_in } -> Some one_in | _ -> None)
      plan
  in
  (match (drop_one_in, corrupt_one_in) with
  | None, None -> Fieldbus.Bus.set_fault t.bus None
  | _ ->
    (* deterministic counter-based selection, matching the irq-drop
       fault's semantics: every one_in-th transmitted frame *)
    let dropped = ref 0 and corrupted = ref 0 in
    Fieldbus.Bus.set_fault t.bus
      (Some
         (fun frame ->
           let drop =
             match drop_one_in with
             | None -> false
             | Some n ->
               incr dropped;
               !dropped mod n = 0
           in
           if drop then None
           else
             let corrupt =
               match corrupt_one_in with
               | None -> false
               | Some n ->
                 incr corrupted;
                 !corrupted mod n = 0
             in
             if not corrupt then Some frame
             else begin
               t.corrupted <- t.corrupted + 1;
               let payload = Array.copy frame.Fieldbus.Bus.payload in
               let last = Array.length payload - 1 in
               payload.(last) <- payload.(last) lxor (1 lsl 21);
               Some { frame with Fieldbus.Bus.payload }
             end)));
  let partitions =
    List.filter_map
      (function
        | Fault.Plan.Link_partition { a; b; from_; until } ->
          Some (a, b, from_, until)
        | _ -> None)
      plan
  in
  (match partitions with
  | [] -> Fieldbus.Bus.set_link_filter t.bus None
  | _ ->
    Fieldbus.Bus.set_link_filter t.bus
      (Some
         (fun ~src ~dst ->
           let at = Sim.Engine.now t.engine in
           not
             (List.exists
                (fun (a, b, from_, until) ->
                  ((src = a && dst = b) || (src = b && dst = a))
                  && from_ <= at && at < until)
                partitions))));
  List.iter
    (function
      | Fault.Plan.Node_crash { node; at } -> crash t ~node ~at
      | Fault.Plan.Node_restart { node; at } -> restart t ~node ~at
      | _ -> ())
    plan;
  (* the static failover bound for the planned crashes, computed before
     the run: worst orphan count over crashed nodes, commit fan-out
     bounded by the survivors *)
  let n_nodes = Array.length t.shards in
  let bounds =
    List.filter_map
      (function
        | Fault.Plan.Node_crash { node; _ } -> (
          match Array.find_opt (fun sh -> sh.sh_id = node) t.shards with
          | None -> None
          | Some sh ->
            let tasks = List.length sh.sh_tasks in
            let targets = min (n_nodes - 1) (max 1 tasks) in
            Some
              (Bound.failover_bound ~bus:t.bus ~config:t.config.net
                 ~cost:t.cost ~hb_period:t.config.hb_period
                 ~miss_threshold:t.config.miss_threshold ~tasks ~targets))
        | _ -> None)
      plan
  in
  t.static_bound <-
    (match bounds with [] -> None | _ -> Some (List.fold_left max 0 bounds))

(* ------------------------------------------------------------------ *)
(* Planned migration: freeze at a job boundary, transfer, commit *)

let next_job_boundary t sh (task : Model.Task.t) =
  let t0 = sh.sh_origin + task.phase in
  let n = now t in
  if n <= t0 then t0
  else t0 + (Util.Intmath.ceil_div (n - t0) task.period * task.period)

let migrate t ~tid ~dst =
  let src =
    Array.find_opt
      (fun sh ->
        sh.sh_alive
        && List.exists (fun (task : Model.Task.t) -> task.id = tid) sh.sh_tasks)
      t.shards
  in
  match src with
  | None -> invalid_arg (Printf.sprintf "Cluster.migrate: no live owner of task %d" tid)
  | Some src ->
    let target = shard t dst in
    if not target.sh_alive then
      invalid_arg (Printf.sprintf "Cluster.migrate: node %d is down" dst);
    let task =
      List.find (fun (task : Model.Task.t) -> task.id = tid) src.sh_tasks
    in
    if not (rta_admits t (target.sh_tasks @ [ task ])) then begin
      t.shed_tids <- tid :: t.shed_tids;
      false
    end
    else begin
      let at = next_job_boundary t src task in
      ignore
        (Sim.Engine.schedule t.engine ~at (fun () ->
             if
               src.sh_alive && target.sh_alive
               && List.exists
                    (fun (x : Model.Task.t) -> x.id = tid)
                    src.sh_tasks
             then begin
               let rest =
                 List.filter
                   (fun (x : Model.Task.t) -> x.id <> tid)
                   src.sh_tasks
               in
               provision t src ~origin:(now t) rest;
               send_image ~from_:src ~dst task;
               Net.send src.sh_ep ~dst ~kind:Wire.Commit ~arg:src.sh_id
                 ~data:0
             end));
      true
    end

(* ------------------------------------------------------------------ *)
(* Construction and run *)

let create ?probe ?(config = default_config) ~engine ~bus ~cost ~spec ~seed
    ~assignments () =
  if assignments = [] then invalid_arg "Cluster.create: no shards";
  List.iter
    (fun (id, _) ->
      if id < 0 || id > Wire.max_node then
        invalid_arg "Cluster.create: node ids must be 0..15")
    assignments;
  let root = Util.Rng.create ~seed in
  let shards =
    assignments
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (id, tasks) ->
           let node = Fieldbus.Node.create ~bus ~id () in
           let ep =
             Net.create ?probe ~node ~rng:(Util.Rng.split root id)
               ~config:config.net ()
           in
           {
             sh_id = id;
             sh_node = node;
             sh_ep = ep;
             sh_kernel = None;
             sh_origin = 0;
             sh_retired = [];
             sh_tasks = tasks;
             sh_alive = true;
             sh_last_seen = Hashtbl.create 8;
             sh_suspected = [];
             sh_rx_tid = None;
             sh_rx_words = [];
             sh_pending_admit = [];
           })
    |> Array.of_list
  in
  let t =
    {
      engine;
      bus;
      cost;
      spec;
      config;
      shards;
      probe;
      plan = Fault.Plan.empty;
      corrupted = 0;
      crashes = [];
      detections = [];
      migrations = [];
      shed_tids = [];
      handled = [];
      failover_ends = [];
      static_bound = None;
    }
  in
  Array.iter
    (fun sh ->
      (match sh.sh_tasks with
      | [] -> ()
      | tasks ->
        sh.sh_kernel <-
          Some
            (Kernel.create ~engine ~cost ~spec
               ~taskset:(Model.Taskset.of_list tasks) ()));
      Net.on_deliver sh.sh_ep (handle_msg t sh);
      (* stagger first beats so same-instant arbitration stays busy but
         deterministic *)
      let offset =
        config.hb_period * (sh.sh_id + 1) / (Array.length shards + 1)
      in
      ignore (Sim.Engine.schedule t.engine ~at:offset (tick t sh)))
    shards;
  (match probe with
  | None -> ()
  | Some p ->
    Fieldbus.Bus.set_tap bus
      (Some
         (function
           | Fieldbus.Bus.Tx { frame; arb_delay } ->
             Obs.Probe.emit p ~at:(Sim.Engine.now engine)
               (Sim.Trace.Net_arb
                  { frame_id = frame.Fieldbus.Bus.frame_id; delay = arb_delay })
           | Fieldbus.Bus.Dropped frame ->
             Obs.Probe.emit p ~at:(Sim.Engine.now engine)
               (Sim.Trace.Net_frame
                  {
                    node = frame.Fieldbus.Bus.src_node;
                    dir = Drop;
                    frame_id = frame.Fieldbus.Bus.frame_id;
                    words = Array.length frame.Fieldbus.Bus.payload;
                  }))));
  t

let run t ~until = Sim.Engine.run_until t.engine until

(* ------------------------------------------------------------------ *)
(* Scoring *)

let kernels_of sh =
  (match sh.sh_kernel with Some k -> [ k ] | None -> []) @ sh.sh_retired

let misses_after t ~cut =
  Array.to_list t.shards
  |> List.concat_map kernels_of
  |> List.fold_left
       (fun acc k ->
         List.fold_left
           (fun acc (st : Sim.Trace.stamped) ->
             match st.entry with
             | Sim.Trace.Deadline_miss _ when st.at >= cut -> acc + 1
             | _ -> acc)
           acc
           (Sim.Trace.entries (Kernel.trace k)))
       0

let first_crash t =
  match List.sort (fun (_, a) (_, b) -> compare a b) t.crashes with
  | [] -> None
  | c :: _ -> Some c

let detect_latency t =
  match first_crash t with
  | None -> None
  | Some (node, at) ->
    Option.map (fun d -> Model.Time.sub d at) (List.assoc_opt node t.detections)

let failover_latency t =
  (* worst crash-to-last-re-admission over the handled crashes *)
  List.filter_map
    (fun (node, crashed_at) ->
      Option.map
        (fun e -> Model.Time.sub e crashed_at)
        (List.assoc_opt node t.failover_ends))
    t.crashes
  |> function
  | [] -> None
  | ls -> Some (List.fold_left Model.Time.max 0 ls)

let last_failover_end t =
  match List.map snd t.failover_ends with
  | [] -> None
  | es -> Some (List.fold_left Model.Time.max 0 es)

let static_bound t = t.static_bound
let migrations t = List.rev t.migrations
let shed t = List.rev t.shed_tids
let crashes t = List.rev t.crashes
let shards_alive t =
  Array.to_list t.shards
  |> List.filter_map (fun sh -> if sh.sh_alive then Some sh.sh_id else None)

let kernel t ~node = (shard t node).sh_kernel

let kernels t ~node =
  let sh = shard t node in
  List.rev sh.sh_retired
  @ (match sh.sh_kernel with Some k -> [ k ] | None -> [])

let score t ~horizon =
  let cut = Option.value ~default:0 (last_failover_end t) in
  let unique =
    Array.fold_left (fun acc sh -> acc + Net.unique_sends sh.sh_ep) 0 t.shards
  in
  let retries =
    Array.fold_left (fun acc sh -> acc + Net.retries sh.sh_ep) 0 t.shards
  in
  let timeouts =
    Array.fold_left (fun acc sh -> acc + Net.timeouts sh.sh_ep) 0 t.shards
  in
  {
    Fault.Report.n_nodes = Array.length t.shards;
    n_surviving = List.length (shards_alive t);
    n_migrated = List.length t.migrations;
    n_shed = List.length t.shed_tids;
    n_e2e_misses = misses_after t ~cut;
    n_frames = Fieldbus.Bus.frames_sent t.bus;
    n_dropped = Fieldbus.Bus.frames_dropped t.bus;
    n_corrupt = t.corrupted;
    n_retries = retries;
    n_timeouts = timeouts;
    n_retry_amplification =
      (if unique = 0 then 1.0
       else float_of_int (unique + retries) /. float_of_int unique);
    n_bus_utilization =
      (if horizon <= 0 then 0.0
       else
         float_of_int (Fieldbus.Bus.bus_busy_time t.bus)
         /. float_of_int horizon);
    n_detect_latency = detect_latency t;
    n_failover_latency = failover_latency t;
    n_failover_bound = t.static_bound;
  }
