type t = {
  counts : (string, int ref) Hashtbl.t; (* by csv kind *)
  resp : (int, Util.Hist.t) Hashtbl.t;
  block : (int, Util.Hist.t) Hashtbl.t;
  irq_lat : Util.Hist.t;
  depth : Util.Hist.t;
  ovh : Util.Hist.t option array; (* indexed by [Sim.Trace.ovh_index] *)
  live : (int, Util.Hist.t) Hashtbl.t; (* pool -> pool-wide live blocks *)
  net : (int * string, int ref) Hashtbl.t; (* (node, kind) -> count *)
  arb : Util.Hist.t; (* bus arbitration delay per transmitted frame *)
  (* pairing state *)
  open_blocks : (int, Model.Time.t) Hashtbl.t; (* tid -> block time *)
  mutable pending_irqs : Model.Time.t list; (* newest first *)
  mutable released : int; (* released-but-incomplete jobs *)
}

let create () =
  {
    counts = Hashtbl.create 32;
    resp = Hashtbl.create 8;
    block = Hashtbl.create 8;
    irq_lat = Util.Hist.create ();
    depth = Util.Hist.create ();
    ovh = Array.make Sim.Trace.ovh_count None;
    live = Hashtbl.create 4;
    net = Hashtbl.create 8;
    arb = Util.Hist.create ();
    open_blocks = Hashtbl.create 8;
    pending_irqs = [];
    released = 0;
  }

let bump_net t ~node kind =
  match Hashtbl.find_opt t.net (node, kind) with
  | Some c -> incr c
  | None -> Hashtbl.add t.net (node, kind) (ref 1)

let hist_for tbl key =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
    let h = Util.Hist.create () in
    Hashtbl.add tbl key h;
    h

let bump_depth t delta =
  t.released <- max 0 (t.released + delta);
  Util.Hist.observe t.depth t.released

let observe t ({ at; entry } : Sim.Trace.stamped) =
  let kind, _, _ = Sim.Trace.csv_fields entry in
  (match Hashtbl.find_opt t.counts kind with
  | Some c -> incr c
  | None -> Hashtbl.add t.counts kind (ref 1));
  match entry with
  | Job_release _ -> bump_depth t 1
  | Job_complete { tid; response; _ } ->
    Util.Hist.observe (hist_for t.resp tid) response;
    bump_depth t (-1)
  | Job_killed _ -> bump_depth t (-1)
  | Thread_block { tid; _ } -> Hashtbl.replace t.open_blocks tid at
  | Thread_unblock { tid } -> (
    match Hashtbl.find_opt t.open_blocks tid with
    | Some t0 ->
      Hashtbl.remove t.open_blocks tid;
      Util.Hist.observe (hist_for t.block tid) (Model.Time.sub at t0)
    | None -> ())
  | Interrupt _ -> t.pending_irqs <- at :: t.pending_irqs
  | Context_switch _ ->
    List.iter
      (fun t0 -> Util.Hist.observe t.irq_lat (Model.Time.sub at t0))
      t.pending_irqs;
    t.pending_irqs <- []
  | Overhead { category; cost } ->
    let i = Sim.Trace.ovh_index category in
    let h =
      match t.ovh.(i) with
      | Some h -> h
      | None ->
        let h = Util.Hist.create () in
        t.ovh.(i) <- Some h;
        h
    in
    Util.Hist.observe h cost
  | Block_alloc { pool; live; _ } | Block_free { pool; live; _ } ->
    Util.Hist.observe (hist_for t.live pool) live
  | Net_frame { node; dir; _ } -> bump_net t ~node dir
  | Net_retry { node; _ } -> bump_net t ~node "retry"
  | Net_timeout { node; _ } -> bump_net t ~node "timeout"
  | Net_arb { delay; _ } -> Util.Hist.observe t.arb delay
  | Deadline_miss _ | Budget_overrun _ | Job_shed _ | Sem_acquired _
  | Sem_blocked _ | Sem_released _ | Priority_inherit _ | Priority_restore _
  | Approach_parked _ | Msg_sent _ | Msg_received _ | State_written _
  | State_read _ | Pool_oom _ | Pool_leak _ | Quota_exceeded _ | Input_word _
  | Branch _ | Note _ ->
    ()

let attach t probe = Probe.subscribe probe ~mask:Probe.all_mask (observe t)

let counter t kind =
  match Hashtbl.find_opt t.counts kind with Some c -> !c | None -> 0

let counters t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.counts []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort compare

let net_counter t ~node kind =
  match Hashtbl.find_opt t.net (node, kind) with Some c -> !c | None -> 0

let net_nodes t =
  Hashtbl.fold (fun (node, _) _ acc -> node :: acc) t.net []
  |> List.sort_uniq compare

let response t ~tid = Hashtbl.find_opt t.resp tid
let live_blocks t ~pool = Hashtbl.find_opt t.live pool

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let response_tids t = sorted_keys t.resp
let live_pools t = sorted_keys t.live
let blocking t ~tid = Hashtbl.find_opt t.block tid
let blocking_tids t = sorted_keys t.block
let irq_latency t = t.irq_lat
let ready_depth t = t.depth

let overhead t =
  List.filter_map
    (fun c ->
      match t.ovh.(Sim.Trace.ovh_index c) with
      | Some h -> Some (Sim.Trace.ovh_name c, h)
      | None -> None)
    Sim.Trace.ovh_categories
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge a b =
  let m = create () in
  let add_counts (src : t) =
    Hashtbl.iter
      (fun k c ->
        match Hashtbl.find_opt m.counts k with
        | Some c' -> c' := !c' + !c
        | None -> Hashtbl.add m.counts k (ref !c))
      src.counts
  in
  let merge_tbl dst t1 t2 =
    let keys = List.sort_uniq compare (sorted_keys t1 @ sorted_keys t2) in
    List.iter
      (fun k ->
        let h =
          match (Hashtbl.find_opt t1 k, Hashtbl.find_opt t2 k) with
          | Some h1, Some h2 -> Util.Hist.merge h1 h2
          | Some h, None | None, Some h -> Util.Hist.merge h (Util.Hist.create ())
          | None, None -> assert false
        in
        Hashtbl.replace dst k h)
      keys
  in
  add_counts a;
  add_counts b;
  let add_net (src : t) =
    Hashtbl.iter
      (fun k c ->
        match Hashtbl.find_opt m.net k with
        | Some c' -> c' := !c' + !c
        | None -> Hashtbl.add m.net k (ref !c))
      src.net
  in
  add_net a;
  add_net b;
  merge_tbl m.resp a.resp b.resp;
  merge_tbl m.block a.block b.block;
  Array.iteri
    (fun i _ ->
      m.ovh.(i) <-
        (match (a.ovh.(i), b.ovh.(i)) with
        | Some h1, Some h2 -> Some (Util.Hist.merge h1 h2)
        | Some h, None | None, Some h ->
          Some (Util.Hist.merge h (Util.Hist.create ()))
        | None, None -> None))
    m.ovh;
  merge_tbl m.live a.live b.live;
  {
    m with
    irq_lat = Util.Hist.merge a.irq_lat b.irq_lat;
    depth = Util.Hist.merge a.depth b.depth;
    arb = Util.Hist.merge a.arb b.arb;
  }

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "events:";
  List.iter (fun (k, n) -> Format.fprintf ppf " %s=%d" k n) (counters t);
  Format.fprintf ppf "@,";
  List.iter
    (fun tid ->
      match response t ~tid with
      | Some h -> Format.fprintf ppf "response  tau%d: %a@," tid Util.Hist.pp h
      | None -> ())
    (response_tids t);
  List.iter
    (fun tid ->
      match blocking t ~tid with
      | Some h -> Format.fprintf ppf "blocking  tau%d: %a@," tid Util.Hist.pp h
      | None -> ())
    (blocking_tids t);
  if Util.Hist.count t.irq_lat > 0 then
    Format.fprintf ppf "irq-latency: %a@," Util.Hist.pp t.irq_lat;
  if Util.Hist.count t.depth > 0 then
    Format.fprintf ppf "ready-depth: %a@," Util.Hist.pp t.depth;
  List.iter
    (fun pool ->
      match live_blocks t ~pool with
      | Some h ->
        Format.fprintf ppf "live-blks pool%d: %a@," pool Util.Hist.pp h
      | None -> ())
    (live_pools t);
  List.iter
    (fun (cat, h) ->
      Format.fprintf ppf "overhead  %s: %a@," cat Util.Hist.pp h)
    (overhead t);
  List.iter
    (fun node ->
      Format.fprintf ppf "net       node%d:" node;
      List.iter
        (fun kind ->
          let n = net_counter t ~node kind in
          if n > 0 then Format.fprintf ppf " %s=%d" kind n)
        [ "tx"; "rx"; "drop"; "corrupt"; "retry"; "timeout" ];
      Format.fprintf ppf "@,")
    (net_nodes t);
  if Util.Hist.count t.arb > 0 then
    Format.fprintf ppf "bus-arb-delay: %a@," Util.Hist.pp t.arb;
  Format.fprintf ppf "@]"
