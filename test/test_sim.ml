(* Tests for the discrete-event engine, trace, and cost model. *)

open Alcotest

let ms = Model.Time.ms
let us = Model.Time.us

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  ignore (Sim.Engine.schedule e ~at:(ms 3) (note "c"));
  ignore (Sim.Engine.schedule e ~at:(ms 1) (note "a"));
  ignore (Sim.Engine.schedule e ~at:(ms 2) (note "b"));
  check bool "queue drained" true (Sim.Engine.run_bounded e ~max_events:1_000);
  check (list string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check int "clock at last event" (ms 3) (Sim.Engine.now e)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule e ~at:(ms 1) (fun () -> log := i :: !log))
  done;
  check bool "queue drained" true (Sim.Engine.run_bounded e ~max_events:1_000);
  check (list int) "same-time events in schedule order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~at:(ms 1) (fun () -> fired := true) in
  check bool "cancel succeeds" true (Sim.Engine.cancel e h);
  check bool "cancel twice fails" false (Sim.Engine.cancel e h);
  check bool "queue drained" true (Sim.Engine.run_bounded e ~max_events:1_000);
  check bool "cancelled event did not fire" false !fired

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec periodic t =
    ignore
      (Sim.Engine.schedule e ~at:t (fun () ->
           incr count;
           periodic (t + ms 10)))
  in
  periodic 0;
  Sim.Engine.run_until e (ms 35);
  check int "fires within horizon only" 4 !count;
  check int "clock set to horizon" (ms 35) (Sim.Engine.now e);
  check bool "future event still queued" true (Sim.Engine.pending e > 0)

let test_engine_schedule_during_event () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:(ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.Engine.schedule e ~at:(ms 1) (fun () ->
                log := "inner-same-time" :: !log))));
  check bool "queue drained" true (Sim.Engine.run_bounded e ~max_events:1_000);
  check (list string) "nested same-time event fires" [ "outer"; "inner-same-time" ]
    (List.rev !log)

let test_engine_run_bounded () =
  (* a self-perpetuating event pattern must fail the bound, not hang *)
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let rec forever t =
    ignore
      (Sim.Engine.schedule e ~at:t (fun () ->
           incr fired;
           forever (t + ms 1)))
  in
  forever 0;
  check bool "bound reached before the queue drains" false
    (Sim.Engine.run_bounded e ~max_events:25);
  check int "exactly max_events fired" 25 !fired;
  check bool "negative bound rejected" true
    (try
       ignore (Sim.Engine.run_bounded e ~max_events:(-1));
       false
     with Invalid_argument _ -> true)

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~at:(ms 2) (fun () -> ()));
  check bool "queue drained" true (Sim.Engine.run_bounded e ~max_events:1_000);
  check bool "scheduling in the past raises" true
    (try
       ignore (Sim.Engine.schedule e ~at:(ms 1) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_counters () =
  let tr = Sim.Trace.create () in
  Sim.Trace.emit tr ~at:0 (Sim.Trace.Context_switch { from_tid = None; to_tid = Some 1 });
  Sim.Trace.set_outgoing_ready tr true;
  Sim.Trace.emit tr ~at:1 (Sim.Trace.Context_switch { from_tid = Some 1; to_tid = Some 2 });
  Sim.Trace.emit tr ~at:2 (Sim.Trace.Deadline_miss { tid = 1; job = 1; lateness = 0 });
  Sim.Trace.emit tr ~at:3 (Sim.Trace.Overhead { category = Ovh_pi; cost = us 2 });
  Sim.Trace.emit tr ~at:3 (Sim.Trace.Overhead { category = Ovh_pi; cost = us 3 });
  Sim.Trace.emit tr ~at:3 (Sim.Trace.Overhead { category = Ovh_switch; cost = us 1 });
  check int "switches" 2 (Sim.Trace.context_switches tr);
  check int "preemptions" 1 (Sim.Trace.preemptions tr);
  check int "misses" 1 (Sim.Trace.deadline_misses tr);
  check int "overhead total" (us 6) (Sim.Trace.overhead_total tr);
  check (list (pair string int)) "by category"
    [ ("pi", us 5); ("switch", us 1) ]
    (Sim.Trace.overhead_by_category tr);
  check int "entries kept" 6 (List.length (Sim.Trace.entries tr));
  (match Sim.Trace.first_miss tr with
  | Some { at; _ } -> check int "first miss time" 2 at
  | None -> fail "miss recorded");
  Sim.Trace.add_busy tr (ms 1);
  check int "busy" (ms 1) (Sim.Trace.busy_time tr)

let test_trace_no_entries_mode () =
  let tr = Sim.Trace.create ~keep_entries:false () in
  Sim.Trace.emit tr ~at:0 (Sim.Trace.Deadline_miss { tid = 1; job = 1; lateness = 0 });
  check int "counter still works" 1 (Sim.Trace.deadline_misses tr);
  check int "no entries retained" 0 (List.length (Sim.Trace.entries tr))

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_cost_table1 () =
  let c = Sim.Cost.m68040 in
  check int "edf t_b" (Model.Time.of_us_f 1.6) c.edf_tb;
  check int "edf t_s n=15" (Model.Time.of_us_f 4.95) (Sim.Cost.edf_ts c ~n:15);
  check int "rm t_b n=10" (Model.Time.of_us_f 4.6) (Sim.Cost.rm_tb c ~scanned:10);
  check int "rm t_s" (Model.Time.of_us_f 0.6) c.rm_ts;
  (* heap at n=15: ceil(log2 16) = 4 *)
  check int "heap t_b n=15" (Model.Time.of_us_f (0.4 +. (2.8 *. 4.)))
    (Sim.Cost.heap_tb c ~n:15);
  check int "heap t_u n=15" (Model.Time.of_us_f (1.9 +. (0.7 *. 4.)))
    (Sim.Cost.heap_tu c ~n:15);
  check int "csd parse x=3" (Model.Time.of_us_f 1.65) (Sim.Cost.csd_parse c ~queues:3)

let test_cost_zero_and_scale () =
  check int "zero context switch" 0 Sim.Cost.zero.context_switch;
  check int "zero edf_ts" 0 (Sim.Cost.edf_ts Sim.Cost.zero ~n:50);
  let doubled = Sim.Cost.scale Sim.Cost.m68040 2.0 in
  check int "scaled switch" (2 * Sim.Cost.m68040.context_switch)
    doubled.context_switch;
  check int "scaled edf slope" (2 * Sim.Cost.m68040.edf_ts_per_task)
    doubled.edf_ts_per_task

let test_cost_ipc () =
  let c = Sim.Cost.m68040 in
  check bool "mailbox grows with words" true
    (Sim.Cost.mailbox_copy c ~words:64 > Sim.Cost.mailbox_copy c ~words:4);
  check bool "state write cheaper than mailbox" true
    (Sim.Cost.state_write c ~words:16 < Sim.Cost.mailbox_copy c ~words:16);
  check int "pi standard fp" (Model.Time.of_us_f (1.0 +. (0.36 *. 10.)))
    (Sim.Cost.pi_fp_standard c ~scanned:10)

let test_trace_csv () =
  let tr = Sim.Trace.create () in
  Sim.Trace.emit tr ~at:(ms 1)
    (Sim.Trace.Job_release { tid = 3; job = 1; deadline = ms 5 });
  Sim.Trace.emit tr ~at:(ms 2)
    (Sim.Trace.Context_switch { from_tid = None; to_tid = Some 3 });
  let csv = Sim.Trace.to_csv tr in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check int "header + 2 rows" 3 (List.length lines);
  check string "header" "time_ns,kind,tid,detail" (List.hd lines);
  check bool "release row present" true
    (List.exists
       (fun l -> l = Printf.sprintf "%d,release,3,job=1 deadline=%d" (ms 1) (ms 5))
       lines)

(* One witness per constructor; keep in sync with Sim.Trace.entry (the
   count check below trips when a constructor is added here, and the
   compiler's exhaustiveness warning in Trace.emit / Metrics.observe
   trips when one is added there). *)
let every_entry : Sim.Trace.entry list =
  [
    Job_release { tid = 1; job = 1; deadline = ms 5 };
    Job_complete { tid = 1; job = 1; response = ms 2 };
    Deadline_miss { tid = 1; job = 1; lateness = us 3 };
    Context_switch { from_tid = Some 1; to_tid = None };
    Thread_block { tid = 1; reason = "sem" };
    Thread_unblock { tid = 1 };
    Sem_acquired { tid = 1; sem = 2 };
    Sem_blocked { tid = 1; sem = 2 };
    Sem_released { tid = 1; sem = 2 };
    Priority_inherit { holder = 1; from_tid = 2 };
    Priority_restore { holder = 1 };
    Msg_sent { tid = 1; mailbox = 0; words = 4 };
    Msg_received { tid = 1; mailbox = 0; words = 4; queued_for = us 7 };
    State_written { tid = 1; state = 0; seq = 1 };
    State_read { tid = 1; state = 0; seq = 1 };
    Interrupt { irq = 9 };
    Overhead { category = Ovh_sched_select; cost = us 1 };
    Budget_overrun { tid = 1; job = 1; used = us 9; budget = us 8 };
    Job_killed { tid = 1; job = 1 };
    Job_shed { tid = 1; job = 2; reason = "skip-over" };
    Net_frame { node = 1; dir = Tx; frame_id = 65; words = 2 };
    Net_retry { node = 1; seq = 3; attempt = 2 };
    Net_timeout { node = 1; seq = 3 };
    Net_arb { frame_id = 65; delay = us 79 };
    Note "marker";
  ]

let test_trace_exhaustive_render () =
  check int "witness per constructor" 25 (List.length every_entry);
  let tr = Sim.Trace.create () in
  List.iteri (fun i e -> Sim.Trace.emit tr ~at:(us i) e) every_entry;
  (* to_csv: one data row per entry, each with a non-empty kind *)
  let csv_lines = String.split_on_char '\n' (String.trim (Sim.Trace.to_csv tr)) in
  check int "csv rows" (List.length every_entry + 1) (List.length csv_lines);
  let kinds =
    List.map
      (fun e ->
        let k, _, _ = Sim.Trace.csv_fields e in
        check bool "csv kind non-empty" true (k <> "");
        k)
      every_entry
  in
  check int "csv kinds distinct" (List.length every_entry)
    (List.length (List.sort_uniq compare kinds));
  (* pp_stamped: every constructor renders as a distinct line *)
  let rendered =
    List.map
      (fun e ->
        let s = Format.asprintf "%a" Sim.Trace.pp_stamped { at = 0; entry = e } in
        check bool "pp_stamped non-empty" true (String.length s > 10);
        s)
      every_entry
  in
  check int "pp_stamped lines distinct" (List.length every_entry)
    (List.length (List.sort_uniq compare rendered));
  (* pp_timeline: the PR 4 enforcement kinds must show up *)
  let timeline = Format.asprintf "%a" Sim.Trace.pp_timeline tr in
  let contains needle =
    let nl = String.length needle and hl = String.length timeline in
    let rec go i =
      i + nl <= hl && (String.sub timeline i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      check bool (needle ^ " in timeline") true (contains needle))
    [ "OVERRUN"; "KILL"; "SHED"; "MISS"; "release"; "complete"; "switch" ]

let test_trace_responses_degraded () =
  let exact = [ 120_000; 45_000; 45_000; 3_000_000; 7 ] in
  let feed tr =
    List.iteri
      (fun i r ->
        Sim.Trace.emit tr ~at:(ms i)
          (Sim.Trace.Job_complete { tid = 4; job = i; response = r }))
      exact
  in
  (* keep_entries:true — exact chronological series, as before *)
  let kept = Sim.Trace.create () in
  feed kept;
  check (list int) "kept: exact order" exact (Sim.Trace.responses kept ~tid:4);
  (* keep_entries:false — no longer []: bucketed values, same length *)
  let degraded = Sim.Trace.create ~keep_entries:false () in
  feed degraded;
  let got = Sim.Trace.responses degraded ~tid:4 in
  check int "degraded: same count" (List.length exact) (List.length got);
  check (list int) "degraded: sorted" (List.sort compare got) got;
  List.iter2
    (fun e g ->
      let tol = 2.0 /. float_of_int Util.Hist.sub_buckets in
      if abs_float (float_of_int (g - e)) > (tol *. float_of_int e) +. 1.0 then
        Alcotest.failf "degraded response %d too far from exact %d" g e)
    (List.sort compare exact)
    got;
  check (list int) "degraded: absent task still []" []
    (Sim.Trace.responses degraded ~tid:9);
  (* response_hist agrees across modes up to bucketing *)
  let hk = Sim.Trace.response_hist kept ~tid:4 in
  let hd = Sim.Trace.response_hist degraded ~tid:4 in
  check int "hist counts agree" (Util.Hist.count hk) (Util.Hist.count hd);
  check int "hist max exact in both" (Util.Hist.max_value hk)
    (Util.Hist.max_value hd)

let suite =
  [
    test_case "engine: time order" `Quick test_engine_order;
    test_case "trace: every constructor renders" `Quick
      test_trace_exhaustive_render;
    test_case "trace: responses degrade gracefully" `Quick
      test_trace_responses_degraded;
    test_case "trace: csv export" `Quick test_trace_csv;
    test_case "engine: FIFO ties" `Quick test_engine_fifo_ties;
    test_case "engine: cancel" `Quick test_engine_cancel;
    test_case "engine: run_until" `Quick test_engine_run_until;
    test_case "engine: nested scheduling" `Quick test_engine_schedule_during_event;
    test_case "engine: run_bounded" `Quick test_engine_run_bounded;
    test_case "engine: past rejected" `Quick test_engine_past_rejected;
    test_case "trace: counters" `Quick test_trace_counters;
    test_case "trace: counters-only mode" `Quick test_trace_no_entries_mode;
    test_case "cost: Table 1 values" `Quick test_cost_table1;
    test_case "cost: zero and scale" `Quick test_cost_zero_and_scale;
    test_case "cost: ipc" `Quick test_cost_ipc;
  ]
