open Emeralds

let random_period rng =
  (* Equal probability for each digit class (§5.7). *)
  match Util.Rng.int rng 3 with
  | 0 -> Model.Time.ms (Util.Rng.int_in rng ~lo:5 ~hi:9)
  | 1 -> Model.Time.ms (Util.Rng.int_in rng ~lo:10 ~hi:99)
  | _ -> Model.Time.ms (Util.Rng.int_in rng ~lo:100 ~hi:999)

let scale_to_utilization taskset target =
  let u = Model.Taskset.utilization taskset in
  if u <= 0.0 then None else Model.Taskset.scale_wcets taskset (target /. u)

let random_taskset ~rng ~n ?(target_u = 0.5) () =
  if n < 1 then invalid_arg "Generator.random_taskset: n must be >= 1";
  let task i =
    let period = random_period rng in
    (* Draw raw WCET as 1–25 % of the period (microsecond resolution);
       the set is then rescaled to the target utilization, so only the
       relative spread matters. *)
    let permille = Util.Rng.int_in rng ~lo:10 ~hi:250 in
    let wcet = max (Model.Time.us 10) (period * permille / 1000) in
    Model.Task.make ~id:(i + 1) ~period ~wcet ~blocking_calls:(i mod 2) ()
  in
  let set = Model.Taskset.of_list (List.init n task) in
  match scale_to_utilization set target_u with
  | Some scaled -> scaled
  | None -> set (* target unreachable: keep the raw draw *)

let batch ~seed ~n ~count ?target_u () =
  let root = Util.Rng.create ~seed in
  List.init count (fun i ->
      let rng = Util.Rng.split root i in
      random_taskset ~rng ~n ?target_u ())

(* ------------------------------------------------------------------ *)
(* Scenario generation *)

type family = Generic | Automotive | Avionics | Robotics

let families = [ Generic; Automotive; Avionics; Robotics ]

let family_name = function
  | Generic -> "generic"
  | Automotive -> "automotive"
  | Avionics -> "avionics"
  | Robotics -> "robotics"

let family_of_string = function
  | "generic" -> Some Generic
  | "automotive" -> Some Automotive
  | "avionics" -> Some Avionics
  | "robotics" -> Some Robotics
  | _ -> None

type seg =
  | S_compute of int
  | S_critical of { lock : int; body : int; nested : (int * int) option }
  | S_cond_wait of { lock : int; wq : int; before : int; after : int }
  | S_wait of int
  | S_timed_wait of int * int
  | S_signal of int
  | S_send of int
  | S_recv of int
  | S_state_write of int
  | S_state_read of int
  | S_delay of int
  | S_alloc of int
  | S_free of int
  | S_branch of seg list * seg list
  | S_repeat of int * seg list

type task_spec = {
  g_id : int;
  g_period : int;
  g_sporadic : bool;
  g_segs : seg list;
}

type irq_spec = {
  gi_irq : int;
  gi_min_ia : int;
  gi_max_ia : int;
  gi_signals : int list;
  gi_writes : int list;
}

type spec = {
  s_name : string;
  s_family : family;
  s_locks : int;
  s_waitqs : int;
  s_mailboxes : (int * int) list;
  s_state_msgs : (int * int) list;
  s_pools : (int * int) list;
  s_tasks : task_spec list;
  s_irqs : irq_spec list;
}

let sporadic_phase = Model.Time.sec 3600

(* Worst-case demand of one segment: its computes plus the
   [Charge.hi] of every kernel call {!realize} lowers it to, the
   heavier arm of a branch and [n] bodies of a loop — exactly the
   abstract interpreter's exec bound, so [wcet-declaration] can never
   fire on a generated scenario.  Priced from the spec alone: realizing
   objects would advance the global object ids. *)
let rec seg_charge cost spec seg =
  let call c words = Charge.hi cost c ~words in
  let lockpair = 2 * call Charge.Sem 0 (* acquire + release *) in
  let sum = List.fold_left (fun a s -> a + seg_charge cost spec s) 0 in
  let words table i = snd (List.nth table i) in
  match seg with
  | S_branch (a, b) -> max (sum a) (sum b)
  | S_repeat (n, body) -> n * sum body
  | S_compute c -> c
  | S_critical { body; nested; _ } ->
    lockpair + body
    + (match nested with None -> 0 | Some (_, b) -> lockpair + b)
  | S_cond_wait { before; after; _ } ->
    (* acquire; compute; [release; wait; acquire]; compute; release *)
    (2 * lockpair) + call Charge.Wait 0 + before + after
  | S_wait _ -> call Charge.Wait 0
  | S_timed_wait _ -> call Charge.Timed_wait 0
  | S_signal _ -> call Charge.Signal 0
  | S_send mb -> call Charge.Send (words spec.s_mailboxes mb)
  | S_recv mb -> call Charge.Recv (words spec.s_mailboxes mb)
  | S_state_write sm -> call Charge.State_write (words spec.s_state_msgs sm)
  | S_state_read sm -> call Charge.State_read (words spec.s_state_msgs sm)
  | S_delay _ -> call Charge.Delay 0
  | S_alloc _ | S_free _ -> call Charge.Pool 0

let random_period_of_family rng family =
  let p =
    match family with
    | Generic ->
      (* the §5.7 digit classes, restricted to divisors of 2000 ms so
         every hyperperiod divides 2 s *)
      let classes =
        [|
          [| 5; 8 |];
          [| 10; 20; 25; 40; 50; 80 |];
          [| 100; 125; 200; 250; 400; 500 |];
        |]
      in
      Util.Rng.choose rng classes.(Util.Rng.int rng 3)
    | Automotive -> Util.Rng.choose rng [| 5; 10; 20; 50; 100 |]
    | Avionics -> Util.Rng.choose rng [| 25; 50; 100; 200 |]
    | Robotics -> Util.Rng.choose rng [| 4; 8; 16; 32; 64 |]
  in
  Model.Time.ms p

(* Bini & Buttazzo's UUniFast: n utilizations summing to [target],
   uniformly distributed over the simplex. *)
let uunifast rng n target =
  let u = Array.make n 0.0 in
  let sum = ref target in
  for i = 0 to n - 2 do
    let next =
      !sum *. (Util.Rng.float rng 1.0 ** (1.0 /. float_of_int (n - 1 - i)))
    in
    u.(i) <- !sum -. next;
    sum := next
  done;
  u.(n - 1) <- !sum;
  u

(* [k] distinct indices out of [0, n), uniformly. *)
let sample rng n k =
  let all = Array.init n Fun.id in
  Util.Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 (min k n))

let spec_of ~rng ~index ?family ?n ?target_u () =
  let family =
    match family with
    | Some f -> f
    | None -> Util.Rng.choose rng [| Generic; Automotive; Avionics; Robotics |]
  in
  let n =
    match n with Some n -> max 1 n | None -> Util.Rng.int_in rng ~lo:3 ~hi:8
  in
  let target_u =
    Float.min 0.85
      (match target_u with
      | Some u -> u
      | None -> 0.35 +. Util.Rng.float rng 0.4)
  in
  let period = Array.init n (fun _ -> random_period_of_family rng family) in
  let util = uunifast rng n target_u in
  let sporadic =
    if n >= 2 && Util.Rng.int rng 10 < 3 then Some (Util.Rng.int rng n)
    else None
  in
  let is_sporadic i = sporadic = Some i in
  (* object counts, family-flavoured, clamped to what n tasks host *)
  let d k = Util.Rng.int rng (k + 1) in
  let n_locks, n_wqs, n_mbs, n_sms, n_irqs =
    match family with
    | Generic -> (d 2, d 1, d 1, d 1, d 1)
    | Automotive -> (d 1, d 1, 0, 1 + d 1, 1 + d 1)
    | Avionics -> (1 + d 1, d 1, 1, 1 + d 1, 1)
    | Robotics -> (1 + d 1, 1 + d 1, d 1, d 1, d 1)
  in
  let periodic = List.filter (fun i -> not (is_sporadic i)) (List.init n Fun.id) in
  let n_periodic = List.length periodic in
  let n_locks = if n < 2 then 0 else n_locks in
  let n_wqs = if n_periodic < 2 && n_irqs = 0 then 0 else n_wqs in
  let n_mbs = if n_periodic < 2 then 0 else n_mbs in
  let n_sms = if n_periodic < 1 then 0 else n_sms in
  (* IRQ windows first: wait-form decisions below need them *)
  let ia_menu =
    match family with
    | Automotive -> [| 2; 5; 10 |]
    | Avionics -> [| 5; 10; 20 |]
    | Robotics -> [| 2; 4; 8 |]
    | Generic -> [| 2; 5; 10; 20 |]
  in
  let irqs =
    Array.init n_irqs (fun j ->
        let min_ia = Model.Time.ms (Util.Rng.choose rng ia_menu) in
        let max_ia = min_ia * (100 + Util.Rng.int_in rng ~lo:10 ~hi:50) / 100 in
        {
          gi_irq = 16 + j;
          gi_min_ia = min_ia;
          gi_max_ia = max_ia;
          gi_signals = [];
          gi_writes = [];
        })
  in
  (* per-task segment builders *)
  let front = Array.make n [] and core = Array.make n [] in
  let tail = Array.make n [] in
  let push arr i s = arr.(i) <- s :: arr.(i) in
  let pick_periodic () = List.nth periodic (Util.Rng.int rng n_periodic) in
  (* locks: 2–3 users each, one critical section per user *)
  let crits = Array.make n [] in
  for l = 0 to n_locks - 1 do
    let users = sample rng n (2 + Util.Rng.int rng 2) in
    List.iter (fun u -> crits.(u) <- l :: crits.(u)) users
  done;
  for i = 0 to n - 1 do
    let locks = List.sort_uniq compare crits.(i) in
    match locks with
    | l1 :: l2 :: rest when Util.Rng.bool rng ->
      (* nest the two lowest-index locks: inner index > outer keeps the
         global acquisition order acyclic *)
      push core i (S_critical { lock = l1; body = 0; nested = Some (l2, 0) });
      List.iter
        (fun l -> push core i (S_critical { lock = l; body = 0; nested = None }))
        rest
    | locks ->
      List.iter
        (fun l -> push core i (S_critical { lock = l; body = 0; nested = None }))
        locks
  done;
  (* wait queues: one waiter, one signaller (task or IRQ source) *)
  for w = 0 to n_wqs - 1 do
    let waiter, signaller =
      if n_periodic < 2 then (pick_periodic (), `Irq (Util.Rng.int rng n_irqs))
      else if n_irqs > 0 && Util.Rng.bool rng then
        (pick_periodic (), `Irq (Util.Rng.int rng n_irqs))
      else
        let waiter = pick_periodic () in
        let cands =
          List.filter
            (fun s -> s <> waiter && 2 * period.(s) <= period.(waiter))
            periodic
        in
        (match cands with
        | [] ->
          (* fall back to the extreme pairing: slowest waits, fastest
             signals (a timed wait below if even that is not timely) *)
          let by_p = List.sort (fun a b -> compare period.(a) period.(b)) periodic in
          (List.nth by_p (n_periodic - 1), `Task (List.hd by_p))
        | cs -> (waiter, `Task (List.nth cs (Util.Rng.int rng (List.length cs)))))
    in
    let timely =
      match signaller with
      | `Irq j -> 2 * irqs.(j).gi_max_ia <= period.(waiter)
      | `Task s -> 2 * period.(s) <= period.(waiter)
    in
    (match signaller with
    | `Irq j -> irqs.(j) <- { irqs.(j) with gi_signals = w :: irqs.(j).gi_signals }
    | `Task s -> push tail s (S_signal w));
    if timely && n_locks > 0 && Util.Rng.bool rng then
      push core waiter
        (S_cond_wait
           { lock = Util.Rng.int rng n_locks; wq = w; before = 0; after = 0 })
    else if timely then push front waiter (S_wait w)
    else
      push front waiter
        (S_timed_wait (w, max 1_000 (min 2_000_000 (period.(waiter) / 4))))
  done;
  (* mailboxes: one sender / one receiver; sender at least as frequent
     when possible so the receiver never starves long *)
  let mailboxes =
    List.init n_mbs (fun _ ->
        let r = pick_periodic () in
        let faster =
          List.filter (fun s -> s <> r && period.(s) <= period.(r)) periodic
        in
        let s =
          match faster with
          | [] ->
            List.hd
              (List.sort (fun a b -> compare period.(a) period.(b))
                 (List.filter (fun s -> s <> r) periodic))
          | fs ->
            (* closest rate below the receiver's *)
            List.hd (List.sort (fun a b -> compare period.(b) period.(a)) fs)
        in
        (r, s, max period.(s) 1))
  in
  let mailboxes =
    List.mapi
      (fun m (r, s, sp) ->
        push front r (S_recv m);
        push tail s (S_send m);
        let cap = min 8 (2 + ((period.(r) + sp - 1) / sp)) in
        (cap, 1 + Util.Rng.int rng 4))
      mailboxes
  in
  (* state messages: exactly one writer (task or IRQ source); depth >= 3
     keeps the §7 tear bound unreachable for the rates involved *)
  let state_msgs =
    List.init n_sms (fun k ->
        (if n_irqs > 0 && Util.Rng.bool rng then
           let j = Util.Rng.int rng n_irqs in
           irqs.(j) <- { irqs.(j) with gi_writes = k :: irqs.(j).gi_writes }
         else push tail (pick_periodic ()) (S_state_write k));
        let readers = sample rng n (1 + Util.Rng.int rng 2) in
        List.iter (fun r -> push front r (S_state_read k)) readers;
        (3 + Util.Rng.int rng 2, 1 + Util.Rng.int rng 8))
  in
  (* sporadic tasks keep only computes and criticals: their arrival is
     driven by trigger_job_at, so event pairings would be untimely *)
  (match sporadic with
  | Some i ->
    front.(i) <- [];
    tail.(i) <-
      List.filter (function S_signal _ | S_send _ -> false | _ -> true) tail.(i)
  | None -> ());
  (* robotics flavour: an occasional short blocking sleep *)
  if family = Robotics && n_periodic > 0 && Util.Rng.bool rng then begin
    let i = pick_periodic () in
    push core i (S_delay (max 1_000 (period.(i) / 20)))
  end;
  (* block pools: 1-2 periodic users each; every user allocates its
     blocks up front and frees them all in the tail, so each job
     returns exactly what it took — alloc/free balance is a stream
     invariant (leaks and double frees are demo-only flavours).
     Capacity is the sum of per-user peaks: even a preemption that
     parks every user at its own peak cannot exhaust the pool, so
     generated scenarios stay clean under the mem oracle and the
     model checker's mem property. *)
  let n_pools = if n_periodic = 0 then 0 else d 1 in
  let pools =
    List.init n_pools (fun p ->
        let k = 1 + Util.Rng.int rng (min 2 n_periodic) in
        let users = List.map (List.nth periodic) (sample rng n_periodic k) in
        let capacity =
          List.fold_left
            (fun acc u ->
              let peak = 1 + Util.Rng.int rng 2 in
              for _ = 1 to peak do
                push front u (S_alloc p)
              done;
              for _ = 1 to peak do
                push tail u (S_free p)
              done;
              acc + peak)
            0 users
        in
        (capacity, Util.Rng.choose rng [| 16; 32; 64 |]))
  in
  (* compute slots and budget distribution *)
  let min_slot = 10_000 (* 10 us *) in
  let proto =
    {
      s_name = "";
      s_family = family;
      s_locks = n_locks;
      s_waitqs = n_wqs;
      s_mailboxes = mailboxes;
      s_state_msgs = state_msgs;
      s_pools = pools;
      s_tasks = [];
      s_irqs = [];
    }
  in
  let cost = Sim.Cost.m68040 in
  let tasks =
    List.init n (fun i ->
        let base_computes = 1 + Util.Rng.int rng 2 in
        let core_segs =
          Array.of_list
            (List.init base_computes (fun _ -> S_compute 0) @ core.(i))
        in
        Util.Rng.shuffle rng core_segs;
        let segs = front.(i) @ Array.to_list core_segs @ List.rev tail.(i) in
        let slots_of = function
          | S_compute _ -> 1
          | S_critical { nested = None; _ } -> 1
          | S_critical { nested = Some _; _ } -> 2
          | S_cond_wait _ -> 2
          | _ -> 0
        in
        let slots = List.fold_left (fun a s -> a + slots_of s) 0 segs in
        let charges =
          List.fold_left (fun a s -> a + seg_charge cost proto s) 0 segs
        in
        let budget =
          max
            (int_of_float (util.(i) *. float_of_int period.(i)))
            (charges + (slots * min_slot))
        in
        let spread = budget - charges - (slots * min_slot) in
        let weights = List.init slots (fun _ -> 1 + Util.Rng.int rng 9) in
        let wsum = List.fold_left ( + ) 0 weights in
        let amounts =
          Array.of_list
            (List.map (fun w -> min_slot + (spread * w / wsum)) weights)
        in
        (* rounding remainder lands in the first slot *)
        if slots > 0 then begin
          let given = Array.fold_left ( + ) 0 amounts in
          amounts.(0) <- amounts.(0) + (budget - charges - given)
        end;
        let next =
          let k = ref 0 in
          fun () ->
            let v = amounts.(!k) in
            incr k;
            v
        in
        let segs =
          List.map
            (function
              | S_compute _ -> S_compute (next ())
              | S_critical { lock; nested = None; _ } ->
                S_critical { lock; body = next (); nested = None }
              | S_critical { lock; nested = Some (l2, _); _ } ->
                let b = next () in
                S_critical { lock; body = b; nested = Some (l2, next ()) }
              | S_cond_wait { lock; wq; _ } ->
                let b = next () in
                S_cond_wait { lock; wq; before = b; after = next () }
              | s -> s)
            segs
        in
        {
          g_id = i + 1;
          g_period = period.(i);
          g_sporadic = is_sporadic i;
          g_segs = segs;
        })
  in
  (* ---- structured control flow (appended draws) ------------------
     Every draw below happens after the whole legacy stream, so specs
     generated by older seeds replay their legacy portion byte for
     byte; the structured segments are appended to the end of a task's
     program and to the end of the pool table. *)
  let tasks = Array.of_list tasks in
  let append i extra =
    tasks.(i) <- { tasks.(i) with g_segs = tasks.(i).g_segs @ extra }
  in
  (* small enough that even several augmentations on one task stay
     well under the utilization headroom left by the 0.85 clamp *)
  let small_compute i =
    max 2_000 (Util.Rng.int rng (max 4_000 (period.(i) / 256)))
  in
  (* branchy: a data-dependent detour with deliberately asymmetric
     arms, so a path-insensitive both-arms bound is measurably loose
     and a dropped branch join is measurably unsound *)
  if Util.Rng.int rng 10 < 4 then begin
    let i = Util.Rng.int rng n in
    let light = [ S_compute (small_compute i) ] in
    let heavy = [ S_compute (small_compute i); S_compute (small_compute i) ] in
    let arms =
      if Util.Rng.int rng 10 < 3 then
        (* one level of nesting: a branch inside the light arm *)
        (S_branch (light, heavy) :: light, heavy)
      else (light, heavy)
    in
    append i [ S_branch (fst arms, snd arms) ]
  end;
  (* loopy: a bounded burst of computation whose demand only a
     loop-bound multiplication can cover *)
  if Util.Rng.int rng 10 < 4 then begin
    let i = Util.Rng.int rng n in
    let iters = 2 + Util.Rng.int rng 5 in
    append i [ S_repeat (iters, [ S_compute (small_compute i) ]) ]
  end;
  (* burst allocation: each iteration grabs [grab] blocks and returns
     all but [keep] — the retained blocks accumulate across iterations
     and are freed together after the loop.  A fresh pool sized to the
     exact cross-iteration peak keeps the stream denial- and
     leak-free. *)
  let pools =
    if n_periodic > 0 && Util.Rng.int rng 10 < 3 then begin
      let i = List.nth periodic (Util.Rng.int rng n_periodic) in
      let iters = 2 + Util.Rng.int rng 3 in
      let keep = 1 in
      let grab = keep + 1 + Util.Rng.int rng 2 in
      let p = List.length pools in
      let body =
        List.init grab (fun _ -> S_alloc p)
        @ [ S_compute (small_compute i) ]
        @ List.init (grab - keep) (fun _ -> S_free p)
      in
      append i
        (S_repeat (iters, body) :: List.init (iters * keep) (fun _ -> S_free p));
      (* peak live: all prior iterations' retained blocks plus the last
         iteration's in-flight grab *)
      let capacity = ((iters - 1) * keep) + grab in
      pools @ [ (capacity, Util.Rng.choose rng [| 16; 32; 64 |]) ]
    end
    else pools
  in
  {
    proto with
    s_name = Printf.sprintf "gen-%d-%s" index (family_name family);
    s_pools = pools;
    s_tasks = Array.to_list tasks;
    s_irqs = Array.to_list irqs;
  }

(* ------------------------------------------------------------------ *)
(* Realization *)

let task_wcet cost spec (t : task_spec) =
  let w = List.fold_left (fun a s -> a + seg_charge cost spec s) 0 t.g_segs in
  max w 10_000

let realize ?(cost = Sim.Cost.m68040) spec =
  Ids.restart ();
  let lock =
    Array.init spec.s_locks (fun i ->
        Objects.sem ~kind:(if i mod 2 = 0 then Types.Emeralds else Types.Standard) ())
  in
  let wq = Array.init spec.s_waitqs (fun _ -> Objects.waitq ()) in
  let mb =
    Array.of_list
      (List.map (fun (cap, _) -> Objects.mailbox ~capacity:cap ()) spec.s_mailboxes)
  in
  let sm =
    Array.of_list
      (List.map (fun (depth, words) -> State_msg.create ~depth ~words)
         spec.s_state_msgs)
  in
  let pool =
    Array.of_list
      (List.map
         (fun (cap, bytes) -> Objects.pool ~block_bytes:bytes ~capacity:cap ())
         spec.s_pools)
  in
  let rec instrs_of seg =
    let open Program in
    match seg with
    | S_branch (a, b) ->
      [ if_input (List.concat_map instrs_of a) (List.concat_map instrs_of b) ]
    | S_repeat (n, body) -> [ repeat n (List.concat_map instrs_of body) ]
    | S_compute c -> [ compute c ]
    | S_critical { lock = l; body; nested = None } -> critical lock.(l) body
    | S_critical { lock = l; body; nested = Some (l2, b2) } ->
      (acquire lock.(l) :: compute body :: critical lock.(l2) b2)
      @ [ release lock.(l) ]
    | S_cond_wait { lock = l; wq = w; before; after } ->
      (acquire lock.(l) :: compute before :: condition_wait wq.(w) lock.(l))
      @ [ compute after; release lock.(l) ]
    | S_wait w -> [ wait wq.(w) ]
    | S_timed_wait (w, d) -> [ timed_wait wq.(w) d ]
    | S_signal w -> [ signal wq.(w) ]
    | S_send m ->
      let _, w = List.nth spec.s_mailboxes m in
      [ send mb.(m) (words w) ]
    | S_recv m -> [ recv mb.(m) ]
    | S_state_write k ->
      let _, w = List.nth spec.s_state_msgs k in
      [ state_write sm.(k) (words w) ]
    | S_state_read k -> [ state_read sm.(k) ]
    | S_delay d -> [ delay d ]
    | S_alloc p -> [ alloc pool.(p) ]
    | S_free p -> [ free pool.(p) ]
  in
  let progs = Hashtbl.create 8 in
  let tasks =
    List.map
      (fun (t : task_spec) ->
        let prog = List.concat_map instrs_of t.g_segs in
        let prog =
          if prog = [] then [ Program.compute (task_wcet cost spec t) ]
          else prog
        in
        Hashtbl.replace progs t.g_id prog;
        let blocking_calls =
          List.length (List.filter Program.is_blocking prog)
        in
        Model.Task.make ~id:t.g_id ~period:t.g_period
          ~wcet:(task_wcet cost spec t)
          ~phase:(if t.g_sporadic then sporadic_phase else 0)
          ~blocking_calls ())
      spec.s_tasks
  in
  let sources =
    List.map
      (fun (s : irq_spec) ->
        {
          Scenario.irq = s.gi_irq;
          min_interarrival = s.gi_min_ia;
          max_interarrival = s.gi_max_ia;
          signals = List.map (fun w -> wq.(w)) (List.sort_uniq compare s.gi_signals);
          writes = List.map (fun k -> sm.(k)) (List.sort_uniq compare s.gi_writes);
        })
      spec.s_irqs
  in
  {
    Scenario.name = spec.s_name;
    taskset = Model.Taskset.of_list tasks;
    programs =
      (fun (t : Model.Task.t) ->
        match Hashtbl.find_opt progs t.id with
        | Some p -> p
        | None -> [ Program.compute t.wcet ]);
    irq_sources = sources;
    irq_signals = List.concat_map (fun (s : Scenario.irq_source) -> s.signals) sources;
    irq_writes = List.concat_map (fun (s : Scenario.irq_source) -> s.writes) sources;
  }

let spec_utilization ?(cost = Sim.Cost.m68040) spec =
  List.fold_left
    (fun acc t ->
      acc +. (float_of_int (task_wcet cost spec t) /. float_of_int t.g_period))
    0.0 spec.s_tasks

let scenario_specs ~seed ~count ?family ?n ?target_u () =
  let root = Util.Rng.create ~seed in
  List.init count (fun i ->
      spec_of ~rng:(Util.Rng.split root i) ~index:i ?family ?n ?target_u ())
