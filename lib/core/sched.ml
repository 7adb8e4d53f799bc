open Types

type spec = Edf | Rm | Rm_heap | Csd of int list

let spec_name = function
  | Edf -> "EDF"
  | Rm -> "RM"
  | Rm_heap -> "RM-heap"
  | Csd sizes -> Printf.sprintf "CSD-%d" (List.length sizes + 1)

let queue_count = function
  | Edf | Rm | Rm_heap -> 1
  | Csd sizes -> List.length sizes + 1

let validate_partition spec ~n_tasks =
  match spec with
  | Edf | Rm | Rm_heap -> ()
  | Csd sizes ->
    if List.exists (fun s -> s <= 0) sizes then
      invalid_arg "Sched: CSD queue sizes must be positive";
    if List.fold_left ( + ) 0 sizes > n_tasks then
      invalid_arg "Sched: CSD partition larger than the task set"

(* ------------------------------------------------------------------ *)
(* Generic multi-queue core: [ndp] EDF queues in static priority order
   followed by one RM (FP) queue.  EDF = 1 DP queue and an empty FP
   queue; RM = 0 DP queues. *)

type multiq = {
  dps : Readyq.Edf_queue.t array;
  fp : Readyq.Rm_queue.t;
  cost : Sim.Cost.t;
  optimized_pi : bool;
  parse_queues : int; (* 0 = don't charge the CSD queue-list parse *)
}

let fp_index m = Array.length m.dps

let queue_class_of m tcb =
  if tcb.queue_idx < fp_index m then Dp tcb.queue_idx else Fp

let multiq_attach m sizes tcbs =
  let sorted = Array.copy tcbs in
  Array.sort (fun a b -> compare a.base_prio b.base_prio) sorted;
  let sizes = Array.of_list sizes in
  let queue_of_rank rank =
    let rec loop q acc =
      if q >= Array.length sizes then fp_index m
      else if rank < acc + sizes.(q) then q
      else loop (q + 1) (acc + sizes.(q))
    in
    loop 0 0
  in
  Array.iteri
    (fun rank tcb ->
      let q = queue_of_rank rank in
      tcb.queue_idx <- q;
      tcb.home_queue_idx <- q;
      if q < fp_index m then Readyq.Edf_queue.add m.dps.(q) tcb
      else Readyq.Rm_queue.add m.fp tcb)
    sorted

let multiq_block m tcb =
  match queue_class_of m tcb with
  | Dp i ->
    Readyq.Edf_queue.note_blocked m.dps.(i) tcb;
    m.cost.edf_tb
  | Fp ->
    let scanned = Readyq.Rm_queue.note_blocked m.fp tcb in
    Sim.Cost.rm_tb m.cost ~scanned

let multiq_unblock m tcb =
  match queue_class_of m tcb with
  | Dp i ->
    Readyq.Edf_queue.note_unblocked m.dps.(i) tcb;
    m.cost.edf_tu
  | Fp ->
    Readyq.Rm_queue.note_unblocked m.fp tcb;
    m.cost.rm_tu

let multiq_select m () =
  let parse_cost =
    if m.parse_queues = 0 then 0
    else Sim.Cost.csd_parse m.cost ~queues:m.parse_queues
  in
  let rec scan_dp i =
    if i >= Array.length m.dps then None
    else if Readyq.Edf_queue.ready_count m.dps.(i) > 0 then Some i
    else scan_dp (i + 1)
  in
  match scan_dp 0 with
  | Some i ->
    let chosen = Readyq.Edf_queue.select m.dps.(i) in
    let n = Readyq.Edf_queue.length m.dps.(i) in
    (chosen, parse_cost + Sim.Cost.edf_ts m.cost ~n)
  | None ->
    let chosen = Readyq.Rm_queue.select m.fp in
    (chosen, parse_cost + m.cost.rm_ts)

(* Move a (possibly ready) task between queues for cross-queue priority
   inheritance.  The task keeps its Dlist/none bookkeeping consistent. *)
let migrate m tcb ~to_queue =
  (match queue_class_of m tcb with
  | Dp i -> Readyq.Edf_queue.remove m.dps.(i) tcb
  | Fp -> Readyq.Rm_queue.remove m.fp tcb);
  tcb.queue_idx <- to_queue;
  if to_queue < fp_index m then Readyq.Edf_queue.add m.dps.(to_queue) tcb
  else Readyq.Rm_queue.add m.fp tcb

let inherit_fields ~holder ~waiter =
  holder.eff_prio <- min holder.eff_prio waiter.eff_prio;
  holder.eff_deadline <- Model.Time.min holder.eff_deadline waiter.eff_deadline;
  holder.inherited <- true

let multiq_inherit m ~holder ~waiter =
  let holder_class = queue_class_of m holder in
  let waiter_class = queue_class_of m waiter in
  match (holder_class, waiter_class) with
  | Fp, Fp ->
    if m.optimized_pi then begin
      (* A waiter that outranks the holder only by deadline leaves the
         FP order as it is: swapping would move the holder down into
         the waiter's lower slot. *)
      let outranks = waiter.eff_prio < holder.eff_prio in
      inherit_fields ~holder ~waiter;
      if outranks then Readyq.Rm_queue.inherit_swap m.fp ~holder ~waiter;
      m.cost.pi_step
    end
    else begin
      inherit_fields ~holder ~waiter;
      let scanned = Readyq.Rm_queue.reposition m.fp holder in
      Sim.Cost.pi_fp_standard m.cost ~scanned
    end
  | Dp i, Dp j when j < i ->
    inherit_fields ~holder ~waiter;
    migrate m holder ~to_queue:j;
    m.cost.pi_step
  | Dp _, (Dp _ | Fp) ->
    (* Same or lower queue: the priority fields suffice (the DP queues
       are unsorted). *)
    inherit_fields ~holder ~waiter;
    m.cost.pi_step
  | Fp, Dp j ->
    (* FP holder boosted into a DP queue until it releases.  Any
       place-holder from an earlier FP-FP inheritance must first be
       sent home, or it would be stranded at a stale position. *)
    if m.optimized_pi then Readyq.Rm_queue.restore_swap m.fp ~holder;
    inherit_fields ~holder ~waiter;
    migrate m holder ~to_queue:j;
    m.cost.pi_step

let multiq_restore m ~holder =
  if not holder.inherited then 0
  else begin
    let migrated = holder.queue_idx <> holder.home_queue_idx in
    holder.eff_prio <- holder.base_prio;
    holder.eff_deadline <- holder.abs_deadline;
    holder.inherited <- false;
    if migrated then begin
      migrate m holder ~to_queue:holder.home_queue_idx;
      holder.placeholder <- None;
      m.cost.pi_step
    end
    else
      match queue_class_of m holder with
      | Dp _ -> m.cost.pi_step
      | Fp ->
        if m.optimized_pi then begin
          Readyq.Rm_queue.restore_swap m.fp ~holder;
          m.cost.pi_step
        end
        else begin
          let scanned = Readyq.Rm_queue.reposition m.fp holder in
          Sim.Cost.pi_fp_standard m.cost ~scanned
        end
  end

(* Demotion re-order: the DP queues are unsorted, so updated fields
   suffice; the FP queue needs the standard O(n) re-sort (a demotion is
   rare — it is not on the paper's optimized PI path). *)
let multiq_reprioritize m tcb =
  match queue_class_of m tcb with
  | Dp _ -> m.cost.pi_step
  | Fp ->
    let scanned = Readyq.Rm_queue.reposition m.fp tcb in
    Sim.Cost.pi_fp_standard m.cost ~scanned

let make_multiq ~name ~sizes ~parse_queues ~cost ~optimized_pi =
  let ndp = List.length sizes in
  let m =
    {
      dps = Array.init ndp (fun _ -> Readyq.Edf_queue.create ());
      fp = Readyq.Rm_queue.create ();
      cost;
      optimized_pi;
      parse_queues;
    }
  in
  {
    sched_name = name;
    queue_count = parse_queues;
    s_attach = multiq_attach m sizes;
    s_block = multiq_block m;
    s_unblock = multiq_unblock m;
    s_select = multiq_select m;
    s_inherit = (fun ~holder ~waiter -> multiq_inherit m ~holder ~waiter);
    s_restore = (fun ~holder -> multiq_restore m ~holder);
    s_reprioritize = multiq_reprioritize m;
    s_queue_class = queue_class_of m;
    s_check =
      (fun () ->
        Array.iter Readyq.Edf_queue.check m.dps;
        Readyq.Rm_queue.check m.fp);
  }

(* ------------------------------------------------------------------ *)
(* Heap-based RM (Table 1's third column). *)

let make_heap ~cost =
  let h = Readyq.Heap_queue.create () in
  {
    sched_name = "RM-heap";
    queue_count = 1;
    s_attach = (fun _ -> ());
    s_block =
      (fun tcb ->
        let n = Readyq.Heap_queue.length h in
        Readyq.Heap_queue.note_blocked h tcb;
        Sim.Cost.heap_tb cost ~n:(max 1 n));
    s_unblock =
      (fun tcb ->
        Readyq.Heap_queue.note_unblocked h tcb;
        Sim.Cost.heap_tu cost ~n:(Readyq.Heap_queue.length h));
    s_select = (fun () -> (Readyq.Heap_queue.select h, cost.heap_ts));
    s_inherit =
      (fun ~holder ~waiter ->
        inherit_fields ~holder ~waiter;
        Readyq.Heap_queue.rekey h holder;
        let n = max 1 (Readyq.Heap_queue.length h) in
        Sim.Cost.heap_tb cost ~n + Sim.Cost.heap_tu cost ~n);
    s_restore =
      (fun ~holder ->
        if not holder.inherited then 0
        else begin
          holder.eff_prio <- holder.base_prio;
          holder.eff_deadline <- holder.abs_deadline;
          holder.inherited <- false;
          Readyq.Heap_queue.rekey h holder;
          let n = max 1 (Readyq.Heap_queue.length h) in
          Sim.Cost.heap_tb cost ~n + Sim.Cost.heap_tu cost ~n
        end);
    s_reprioritize =
      (fun tcb ->
        Readyq.Heap_queue.rekey h tcb;
        let n = max 1 (Readyq.Heap_queue.length h) in
        Sim.Cost.heap_tb cost ~n + Sim.Cost.heap_tu cost ~n);
    s_queue_class = (fun _ -> Fp);
    s_check = (fun () -> Readyq.Heap_queue.check h);
  }

let instantiate spec ~cost ~optimized_pi =
  match spec with
  | Edf ->
    (* One DP queue sized to swallow every task: [max_int] is fine, the
       partitioner assigns by prefix. *)
    make_multiq ~name:"EDF" ~sizes:[ max_int ] ~parse_queues:0 ~cost
      ~optimized_pi
  | Rm -> make_multiq ~name:"RM" ~sizes:[] ~parse_queues:0 ~cost ~optimized_pi
  | Rm_heap -> make_heap ~cost
  | Csd sizes ->
    if List.exists (fun s -> s <= 0) sizes then
      invalid_arg "Sched.instantiate: CSD queue sizes must be positive";
    let name = spec_name (Csd sizes) in
    make_multiq ~name ~sizes ~parse_queues:(List.length sizes + 1) ~cost
      ~optimized_pi
