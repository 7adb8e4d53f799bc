open Sim

(* Queue layout of a CSD partition over an n-task workload: the DP
   queue sizes actually populated, and the FP queue length. *)
let layout sizes n =
  let rec take acc remaining = function
    | [] -> (List.rev acc, remaining)
    | s :: rest ->
      if remaining <= 0 then (List.rev acc, 0)
      else
        let used = min s remaining in
        take (used :: acc) (remaining - used) rest
  in
  take [] n sizes

(* Queue index (0-based; [List.length dp_lens] = FP) of a rank. *)
let queue_of_rank dp_lens rank =
  let rec loop q acc = function
    | [] -> q
    | len :: rest -> if rank < acc + len then q else loop (q + 1) (acc + len) rest
  in
  loop 0 0 dp_lens

(* t = 1.5 (t_b + t_u + t_s_block + t_s_unblock) (+ queue-list parses). *)
let combine ~t_b ~t_u ~t_s_block ~t_s_unblock ~parse =
  let sum = t_b + t_u + t_s_block + t_s_unblock + (2 * parse) in
  sum * 3 / 2

let edf_overhead cost ~n =
  combine ~t_b:cost.Cost.edf_tb ~t_u:cost.Cost.edf_tu
    ~t_s_block:(Cost.edf_ts cost ~n) ~t_s_unblock:(Cost.edf_ts cost ~n)
    ~parse:0

let rm_overhead cost ~n =
  combine ~t_b:(Cost.rm_tb cost ~scanned:n) ~t_u:cost.Cost.rm_tu
    ~t_s_block:cost.Cost.rm_ts ~t_s_unblock:cost.Cost.rm_ts ~parse:0

let heap_overhead cost ~n =
  combine ~t_b:(Cost.heap_tb cost ~n) ~t_u:(Cost.heap_tu cost ~n)
    ~t_s_block:cost.Cost.heap_ts ~t_s_unblock:cost.Cost.heap_ts ~parse:0

(* Table 3, generalised to any number of DP queues.  [dp_lens] are the
   populated DP queue lengths, [fp_len] the FP queue length, [q] the
   task's queue index. *)
let csd_overhead cost ~dp_lens ~fp_len ~q ~parse_queues =
  let parse = Cost.csd_parse cost ~queues:parse_queues in
  let ndp = List.length dp_lens in
  if q < ndp then begin
    (* DP task: when it blocks, selection scans the longest queue at or
       below its own (lower DP queues may hold the next ready task);
       when it unblocks, selection scans its own queue. *)
    let own_len = List.nth dp_lens q in
    let max_below =
      List.fold_left max 0
        (List.filteri (fun i _ -> i >= q) dp_lens)
    in
    let t_s_block =
      max (Cost.edf_ts cost ~n:max_below) cost.Cost.rm_ts
    in
    let t_s_unblock = Cost.edf_ts cost ~n:own_len in
    combine ~t_b:cost.Cost.edf_tb ~t_u:cost.Cost.edf_tu ~t_s_block
      ~t_s_unblock ~parse
  end
  else begin
    (* FP task: blocking is the RM scan of the FP queue, and selection
       is O(1) because no DP task can be ready while an FP task runs;
       unblocking selection must assume a DP queue has ready tasks. *)
    let max_dp = List.fold_left max 0 dp_lens in
    let t_s_unblock = max (Cost.edf_ts cost ~n:max_dp) cost.Cost.rm_ts in
    combine
      ~t_b:(Cost.rm_tb cost ~scanned:fp_len)
      ~t_u:cost.Cost.rm_tu ~t_s_block:cost.Cost.rm_ts ~t_s_unblock ~parse
  end

let per_task ~cost ~spec ~n ~rank =
  match (spec : Emeralds.Sched.spec) with
  | Edf -> edf_overhead cost ~n
  | Rm -> rm_overhead cost ~n
  | Rm_heap -> heap_overhead cost ~n
  | Csd sizes ->
    let dp_lens, fp_len = layout sizes n in
    let q = queue_of_rank dp_lens rank in
    csd_overhead cost ~dp_lens ~fp_len ~q
      ~parse_queues:(List.length sizes + 1)

(* ------------------------------------------------------------------ *)
(* Per-job charge envelopes: what the kernel's Table 1 charges can add
   up to inside one job, priced from the program structure.  Used by
   the blame oracle to dominate the *ambient* overhead an attributor
   observes inside a response window (every charge landing in the
   window is attributed, whoever caused it). *)

(* A receiver pays for the copy of whatever a sender enqueued, which
   its own program cannot name, so a [Recv] is priced at this many
   words.  Every shipped preset sends at most 3 words and the generator
   at most 4, so 16 covers them with room to spare; a spec file that
   sends more than 16 words would be under-priced. *)
let recv_words_bound = 16

let program_charges ~cost prog =
  Emeralds.Program.worst_path
    (fun ins ->
      snd
        (Emeralds.Charge.of_instr ~recv_words:(fun _ -> recv_words_bound) cost
           ins))
    prog

(* Everything one job of rank [rank] can charge: its syscall-layer
   charges, one §5.1 scheduler term per block/unblock cycle (the job
   blocks once per blocking leaf plus its release/completion cycle),
   two extra scheduler terms per acquire (a waiter's inherit and the
   release-time restore are each bounded by t_b + t_u <= per_task),
   and a context-switch pair per cycle. *)
let job_envelope ~cost ~spec ~n ~rank prog =
  (* blocking leaves, and acquires, on the job's worst path *)
  let count p =
    Emeralds.Program.worst_path (fun i -> if p i then 1 else 0) prog
  in
  let blocks = count Emeralds.Program.is_blocking
  and acqs = count (function Emeralds.Types.Acquire _ -> true | _ -> false) in
  let sched = per_task ~cost ~spec ~n ~rank in
  program_charges ~cost prog
  + (sched * (1 + blocks + (2 * acqs)))
  + ((1 + blocks) * 2
    * (cost.Cost.context_switch + cost.Cost.address_space_switch))

let job_budget ~cost ~spec ~taskset ~programs ~rank ~response ~irqs =
  let tasks = Model.Taskset.tasks taskset in
  let n = Array.length tasks in
  let total = ref (irqs * cost.Cost.interrupt_entry) in
  Array.iteri
    (fun j (task : Model.Task.t) ->
      let env = job_envelope ~cost ~spec ~n ~rank:j programs.(j) in
      if j = rank then total := !total + env
      else
        (* any job of [j] overlapping a window of length [response]
           can land charges in it: ceil(R/T_j) releases inside the
           window plus one carried in *)
        let jobs = Util.Intmath.ceil_div response task.period + 1 in
        total := !total + (jobs * env))
    tasks;
  !total

let inflate ~cost ~spec taskset =
  let n = Model.Taskset.size taskset in
  Array.mapi
    (fun rank (task : Model.Task.t) ->
      let overhead = per_task ~cost ~spec ~n ~rank in
      (task.period, task.deadline, task.wcet + overhead))
    (Model.Taskset.tasks taskset)
