(* The fault-tolerant fabric: wire format, reliable delivery,
   crash failover within the static bound, probe bit-identity. *)

open Alcotest

let ms = Model.Time.ms

let task ~id ~period_ms ~wcet_ms =
  Model.Task.make ~id ~period:(ms period_ms) ~wcet:(ms wcet_ms) ()

let setup () =
  let engine = Sim.Engine.create () in
  let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
  (engine, bus)

let contains hay needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
  in
  at 0

(* The rule ids of a scorecard's verdict errors. *)
let errors s =
  List.filter_map
    (fun (r : Lint.Sarif.result) ->
      if r.level = Error then Some r.rule_id else None)
    (Fault.Report.net_failures s)

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_roundtrip () =
  let kinds =
    [
      Fabric.Wire.Heartbeat;
      Fabric.Wire.Ack;
      Fabric.Wire.Task_begin;
      Fabric.Wire.Task_word;
      Fabric.Wire.Task_end;
      Fabric.Wire.Commit;
    ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (src, dst, seq, arg, data) ->
          let m = { Fabric.Wire.kind; src; dst; seq; arg; data } in
          match Fabric.Wire.unpack (Fabric.Wire.pack m) with
          | None -> fail "round-trip lost a message"
          | Some m' ->
            check bool
              (Printf.sprintf "round-trip %s" (Fabric.Wire.kind_name kind))
              true (m = m'))
        [
          (0, 1, 0, 0, 0);
          (3, Fabric.Wire.broadcast_dst, 77, 123, 0);
          (15, 0, 65_535, 65_535, max_int);
          (7, 9, 1, 777, ms 5);
        ])
    kinds

let test_wire_field_validation () =
  let m src dst seq arg =
    { Fabric.Wire.kind = Fabric.Wire.Ack; src; dst; seq; arg; data = 0 }
  in
  List.iter
    (fun bad ->
      check bool "oversized field rejected" true
        (try
           ignore (Fabric.Wire.pack bad);
           false
         with Invalid_argument _ -> true))
    [ m 64 0 0 0; m 0 64 0 0; m 0 1 65_536 0; m 0 1 0 65_536; m (-1) 1 0 0 ]

let test_wire_corruption_detected () =
  (* flipping any single payload bit must fail the checksum *)
  let m =
    {
      Fabric.Wire.kind = Fabric.Wire.Task_word;
      src = 2;
      dst = 5;
      seq = 42;
      arg = 3;
      data = 0xBEEF;
    }
  in
  let p = Fabric.Wire.pack m in
  let survived = ref 0 in
  Array.iteri
    (fun w _ ->
      for bit = 0 to 50 do
        let p' = Array.copy p in
        p'.(w) <- p'.(w) lxor (1 lsl bit);
        match Fabric.Wire.unpack p' with
        | None -> ()
        | Some m' -> if m' = m then incr survived
      done)
    p;
  check int "no single-bit flip yields the original message" 0 !survived

let test_wire_arbitration_classes () =
  (* heartbeats outrank acks outrank data: liveness never starves *)
  let hb =
    { Fabric.Wire.kind = Fabric.Wire.Heartbeat; src = 15; dst = 63; seq = 0;
      arg = 0; data = 0 }
  and ack =
    { Fabric.Wire.kind = Fabric.Wire.Ack; src = 0; dst = 1; seq = 9; arg = 9;
      data = 0 }
  and data =
    { Fabric.Wire.kind = Fabric.Wire.Task_word; src = 0; dst = 1; seq = 1;
      arg = 0; data = 5 }
  in
  check bool "hb < ack" true (Fabric.Wire.frame_id hb < Fabric.Wire.frame_id ack);
  check bool "ack < data" true
    (Fabric.Wire.frame_id ack < Fabric.Wire.frame_id data)

(* ------------------------------------------------------------------ *)
(* Reliable delivery *)

let endpoint ?probe ~bus ~id ~seed () =
  let node = Fieldbus.Node.create ~bus ~id () in
  Fabric.Net.create ?probe ~node ~rng:(Util.Rng.create ~seed) ()

let test_net_in_order_under_drops () =
  let engine, bus = setup () in
  let a = endpoint ~bus ~id:0 ~seed:1 () in
  let b = endpoint ~bus ~id:1 ~seed:2 () in
  let got = ref [] in
  Fabric.Net.on_deliver b (fun m ->
      if m.Fabric.Wire.kind = Fabric.Wire.Task_word then
        got := m.Fabric.Wire.arg :: !got);
  (* every 3rd frame on the wire vanishes — data and acks alike *)
  let n = ref 0 in
  Fieldbus.Bus.set_fault bus
    (Some
       (fun f ->
         incr n;
         if !n mod 3 = 0 then None else Some f));
  for i = 0 to 9 do
    Fabric.Net.send a ~dst:1 ~kind:Fabric.Wire.Task_word ~arg:i ~data:(i * i)
  done;
  Sim.Engine.run_until engine (ms 500);
  check (list int) "all delivered, in order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !got);
  check bool "loss forced retries" true (Fabric.Net.retries a > 0);
  check int "no timeouts at one-in-3 loss" 0 (Fabric.Net.timeouts a)

let test_net_duplicate_suppression () =
  (* drop only acks: the data arrives, its ack dies, the retransmit is a
     duplicate that must be re-acked but not re-delivered *)
  let engine, bus = setup () in
  let a = endpoint ~bus ~id:0 ~seed:3 () in
  let b = endpoint ~bus ~id:1 ~seed:4 () in
  let got = ref 0 in
  Fabric.Net.on_deliver b (fun _ -> incr got);
  let killed = ref false in
  Fieldbus.Bus.set_fault bus
    (Some
       (fun f ->
         match Fabric.Wire.unpack f.Fieldbus.Bus.payload with
         | Some { Fabric.Wire.kind = Fabric.Wire.Ack; _ } when not !killed ->
           killed := true;
           None
         | _ -> Some f));
  Fabric.Net.send a ~dst:1 ~kind:Fabric.Wire.Commit ~arg:0 ~data:0;
  Sim.Engine.run_until engine (ms 100);
  check int "delivered exactly once" 1 !got;
  check bool "the lost ack forced a retry" true (Fabric.Net.retries a >= 1)

let test_net_retry_exhaustion () =
  let engine, bus = setup () in
  let a = endpoint ~bus ~id:0 ~seed:5 () in
  let b = endpoint ~bus ~id:1 ~seed:6 () in
  let got = ref 0 in
  Fabric.Net.on_deliver b (fun _ -> incr got);
  (* a hard partition: nothing from 0 reaches 1 *)
  Fieldbus.Bus.set_link_filter bus
    (Some (fun ~src ~dst -> not (src = 0 && dst = 1)));
  Fabric.Net.send a ~dst:1 ~kind:Fabric.Wire.Task_end ~arg:7 ~data:0;
  Sim.Engine.run_until engine (ms 500);
  check int "nothing delivered" 0 !got;
  check int "retries stop at the cap" Fabric.Net.default_config.retry_limit
    (Fabric.Net.retries a);
  check int "one timeout" 1 (Fabric.Net.timeouts a)

(* ------------------------------------------------------------------ *)
(* Cluster failover *)

let three_node_assignments () =
  [
    (0, [ task ~id:1 ~period_ms:20 ~wcet_ms:2; task ~id:2 ~period_ms:40 ~wcet_ms:4 ]);
    (1, [ task ~id:3 ~period_ms:20 ~wcet_ms:2; task ~id:4 ~period_ms:50 ~wcet_ms:5 ]);
    (2, [ task ~id:5 ~period_ms:25 ~wcet_ms:2 ]);
  ]

let run_crash_cluster ?probe () =
  let engine, bus = setup () in
  let cluster =
    Fabric.Cluster.create ?probe ~engine ~bus ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Edf
      ~seed:42 ~assignments:(three_node_assignments ()) ()
  in
  (match Fault.Plan.parse "node-crash:node=1,at=50ms" with
  | Ok plan -> Fabric.Cluster.install_plan cluster plan
  | Error e -> fail e);
  Fabric.Cluster.run cluster ~until:(ms 400);
  (cluster, Fabric.Cluster.score cluster ~horizon:(ms 400))

let test_crash_failover () =
  let cluster, score = run_crash_cluster () in
  check (list int) "node 1 is gone" [ 0; 2 ] (Fabric.Cluster.shards_alive cluster);
  check (list (pair int int)) "crash recorded" [ (1, ms 50) ]
    (Fabric.Cluster.crashes cluster);
  let migrated = List.map (fun (tid, _, _) -> tid) (Fabric.Cluster.migrations cluster) in
  check (list int) "both orphans re-admitted" [ 3; 4 ]
    (List.sort compare migrated);
  check (list int) "nothing shed" [] (Fabric.Cluster.shed cluster);
  check int "score agrees" 2 score.Fault.Report.n_migrated;
  check int "no misses after failover" 0 score.Fault.Report.n_e2e_misses;
  check bool "net score is clean" true (Fault.Report.net_ok score)

let test_failover_within_bound () =
  let cluster, score = run_crash_cluster () in
  let bound =
    match Fabric.Cluster.static_bound cluster with
    | Some b -> b
    | None -> fail "no static bound for a planned crash"
  in
  let observed =
    match Fabric.Cluster.failover_latency cluster with
    | Some l -> l
    | None -> fail "failover never completed"
  in
  let detect =
    match Fabric.Cluster.detect_latency cluster with
    | Some d -> d
    | None -> fail "crash never detected"
  in
  check bool "detection is positive" true (detect > 0);
  check bool
    (Printf.sprintf "observed %dns within bound %dns" observed bound)
    true (observed <= bound);
  check bool "score carries the same comparison" true
    (score.Fault.Report.n_failover_latency = Some observed
    && score.Fault.Report.n_failover_bound = Some bound)

let test_probe_bit_identity () =
  (* a probe-carrying run and a probe-free run of the same cluster must
     agree on every behavioural observable *)
  let _, plain = run_crash_cluster () in
  let trace = Sim.Trace.create () in
  let probe = Obs.Probe.create ~trace () in
  let cluster, probed = run_crash_cluster ~probe () in
  check bool "scores identical" true (plain = probed);
  check bool "probe saw net traffic" true
    (List.exists
       (fun (st : Sim.Trace.stamped) ->
         match st.entry with Sim.Trace.Net_frame _ -> true | _ -> false)
       (Sim.Trace.entries trace));
  ignore cluster

let test_overload_sheds () =
  (* node 1's survivor set cannot absorb a heavy orphan: Koren-Shasha
     drops it instead of breaking surviving deadlines *)
  let engine, bus = setup () in
  let assignments =
    [
      (0, [ task ~id:1 ~period_ms:10 ~wcet_ms:7 ]);
      (1, [ task ~id:2 ~period_ms:10 ~wcet_ms:7 ]);
    ]
  in
  let cluster =
    Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Edf
      ~seed:7 ~assignments ()
  in
  (match Fault.Plan.parse "node-crash:node=1,at=40ms" with
  | Ok plan -> Fabric.Cluster.install_plan cluster plan
  | Error e -> fail e);
  Fabric.Cluster.run cluster ~until:(ms 300);
  check (list int) "orphan shed" [ 2 ] (Fabric.Cluster.shed cluster);
  check (list int) "nothing migrated" []
    (List.map (fun (tid, _, _) -> tid) (Fabric.Cluster.migrations cluster));
  let score = Fabric.Cluster.score cluster ~horizon:(ms 300) in
  check int "survivor keeps its deadlines" 0 score.Fault.Report.n_e2e_misses

let test_planned_migration () =
  let engine, bus = setup () in
  let cluster =
    Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Edf
      ~seed:9 ~assignments:(three_node_assignments ()) ()
  in
  ignore (Sim.Engine.schedule engine ~at:(ms 30) (fun () ->
      check bool "migration accepted" true
        (Fabric.Cluster.migrate cluster ~tid:5 ~dst:0)));
  Fabric.Cluster.run cluster ~until:(ms 300);
  check bool "task 5 moved to node 0" true
    (List.exists
       (fun (tid, target, _) -> tid = 5 && target = 0)
       (Fabric.Cluster.migrations cluster));
  let score = Fabric.Cluster.score cluster ~horizon:(ms 300) in
  check int "no misses around the move" 0 score.Fault.Report.n_e2e_misses

(* Every frame clause of a plan gets its own counter, and the node
   clauses, walked in firing order (by instant, then clause order),
   must each change something. *)
let test_plan_clauses () =
  let cluster spec =
    let engine, bus = setup () in
    ( Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
        ~spec:Emeralds.Sched.Edf ~seed:42
        ~assignments:(three_node_assignments ()) (),
      Result.get_ok (Fault.Plan.parse spec) )
  in
  let dropped spec =
    let c, plan = cluster spec in
    Fabric.Cluster.install_plan c plan;
    Fabric.Cluster.run c ~until:(ms 400);
    (Fabric.Cluster.score c ~horizon:(ms 400)).Fault.Report.n_dropped
  in
  let both = dropped "frame-drop:one-in=4;frame-drop:one-in=3" in
  check bool "two drop clauses drop more than either alone" true
    (both > dropped "frame-drop:one-in=4" && both > dropped "frame-drop:one-in=3");
  let refused spec =
    let c, plan = cluster spec in
    Result.is_error (Fabric.Cluster.check_plan c plan)
  in
  check bool "restart of a live node" true
    (refused "node-restart:node=1,at=10ms");
  check bool "crash of a crashed node" true
    (refused "node-crash:node=1,at=10ms;node-crash:node=1,at=20ms");
  check bool "restart firing before the crash at its instant" true
    (refused "node-restart:node=1,at=10ms;node-crash:node=1,at=10ms");
  check bool "crash then restart" false
    (refused "node-crash:node=1,at=50ms;node-restart:node=1,at=100ms");
  check bool "restart listed before the earlier crash" false
    (refused "node-restart:node=1,at=100ms;node-crash:node=1,at=50ms");
  check bool "crash, restart, crash" false
    (refused
       "node-crash:node=1,at=10ms;node-restart:node=1,at=50ms;\
        node-crash:node=1,at=90ms")

(* The scorecard reports what happened.  Under heavy frame loss a
   crash can be detected and never failed over: that is not graceful
   degradation.  A false suspicion of a live node is not its crash's
   detection: the latency runs from each crash to the first suspicion
   at or after it, and a node some live shard already suspects when it
   crashes (cut off by a partition) gets none, never a negative one. *)
let test_scorecard_reports_crashes () =
  let run ?(extra = []) plan =
    let engine, bus = setup () in
    let cluster =
      Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
        ~spec:Emeralds.Sched.Edf ~seed:7
        ~assignments:(three_node_assignments () @ extra) ()
    in
    Fabric.Cluster.install_plan cluster (Result.get_ok (Fault.Plan.parse plan));
    Fabric.Cluster.run cluster ~until:(ms 400);
    Fabric.Cluster.score cluster ~horizon:(ms 400)
  in
  let s = run "frame-drop:one-in=2;node-crash:node=0,at=200ms" in
  let text = Fault.Report.render_net s in
  check int "one crash" 1 s.n_crashes;
  check bool "detected after the crash" true
    (match s.n_detect_latency with Some d -> d > 0 | None -> false);
  check bool "no failover observed" true (s.n_failover_latency = None);
  check bool "not graceful" false (Fault.Report.net_ok s);
  check bool "the text says so" true
    (contains text "no failover observed after 1 crash(es)");
  check bool "and does not deny the crash" false
    (contains text "no crash observed");
  check bool "the JSON carries the count" true
    (contains (Fault.Report.net_to_json s) {|"crashes":1,|});
  (* the crash-storm preset under frame loss: node 0 is falsely
     suspected early, then nodes 1 and 2 crash *)
  let s =
    run
      ~extra:[ (3, [ task ~id:6 ~period_ms:40 ~wcet_ms:2 ]) ]
      "frame-drop:one-in=16;frame-corrupt:one-in=64;\
       node-crash:node=1,at=60ms;node-crash:node=2,at=160ms;\
       frame-drop:one-in=2"
  in
  check int "two crashes" 2 s.n_crashes;
  check bool "detection is not negative" true
    (match s.n_detect_latency with Some d -> d >= 0 | None -> true);
  (* both crashes are failed over within the bound, but transfers
     abandoned at the retry cap lose tau4-tau6 on the way *)
  check int "three tasks lost" 3 s.n_lost;
  check (list string) "lost tasks: not graceful" [ "task-lost" ] (errors s);
  (* under one-in-3 loss node 2's crash is failed over, but node 1's
     tasks never reach a survivor: each crash needs its own failover *)
  let s =
    run
      ~extra:[ (3, [ task ~id:6 ~period_ms:40 ~wcet_ms:2 ]) ]
      "frame-drop:one-in=16;frame-corrupt:one-in=64;\
       node-crash:node=1,at=60ms;node-crash:node=2,at=160ms;\
       frame-drop:one-in=3"
  in
  check bool "some tasks moved" true (s.n_migrated > 0);
  check bool "yet a crash has no failover" true (s.n_failover_latency = None);
  check int "and its two tasks are lost" 2 s.n_lost;
  check bool "not graceful either" false (Fault.Report.net_ok s);
  let s =
    run "link-partition:a=0,b=1,from=20ms,until=200ms;node-crash:node=1,at=100ms"
  in
  check int "a crash of a node already suspected" 1 s.n_presuspected;
  check bool "has no detection latency" true (s.n_detect_latency = None);
  check bool "and is reported as such" true
    (contains (Fault.Report.render_net s) "already suspected when it crashed")

(* A crash is failed over only by a failover that starts at or after it.
   The partition makes node 0 suspect node 1 and fail it over while it
   is alive, re-admitting its tasks at 36 ms; node 1 crashes at 100 ms,
   already suspected, so no failover follows.  That crash has no
   observed failover, and every reader of the verdict says so. *)
let test_failover_before_crash () =
  let engine, bus = setup () in
  let cluster =
    Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
      ~spec:Emeralds.Sched.Edf ~seed:7 ~assignments:(three_node_assignments ())
      ()
  in
  Fabric.Cluster.install_plan cluster
    (Result.get_ok
       (Fault.Plan.parse
          "link-partition:a=0,b=1,from=20ms,until=200ms;\
           node-crash:node=1,at=100ms"));
  Fabric.Cluster.run cluster ~until:(ms 400);
  let s = Fabric.Cluster.score cluster ~horizon:(ms 400) in
  check bool "node 1 was failed over before it crashed" true
    (List.exists
       (fun (tid, _, at) -> tid = 3 && at < ms 100)
       (Fabric.Cluster.migrations cluster));
  check (option int) "no failover latency" None
    (Fabric.Cluster.failover_latency cluster);
  check (option int) "nor in the score" None s.n_failover_latency;
  check bool "not graceful" false (Fault.Report.net_ok s);
  check (list string) "the verdict's errors" [ "failover-not-observed" ]
    (errors s);
  check bool "the SARIF reads the verdict" true
    (Fault.Report.net_to_sarif s = Fault.Report.net_failures s);
  let text = Fault.Report.render_net s in
  List.iter
    (fun claim ->
      check bool ("the text does not say " ^ claim) false
        (contains text claim))
    [ "within bound"; "graceful degradation" ]

(* A restarted node rejoins with a fresh view of its peers: each counts
   as seen at the restart, so it suspects no live peer and only the
   crash's orphans move.  With its pre-crash view it suspected nodes 1
   and 2 and, as the lowest live id, re-admitted all five tasks on
   itself while they kept running theirs (7 migrations). *)
let test_restart_fails_over_no_live_peer () =
  let engine, bus = setup () in
  let cluster =
    Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
      ~spec:Emeralds.Sched.Edf ~seed:7 ~assignments:(three_node_assignments ())
      ()
  in
  Fabric.Cluster.install_plan cluster
    (Result.get_ok
       (Fault.Plan.parse
          "node-crash:node=0,at=50ms;node-restart:node=0,at=100ms"));
  Fabric.Cluster.run cluster ~until:(ms 400);
  let s = Fabric.Cluster.score cluster ~horizon:(ms 400) in
  check (list int) "every node is up" [ 0; 1; 2 ]
    (Fabric.Cluster.shards_alive cluster);
  check (list int) "only node 0's two tasks migrate" [ 1; 2 ]
    (List.sort compare
       (List.map (fun (tid, _, _) -> tid) (Fabric.Cluster.migrations cluster)));
  check int "the score agrees" 2 s.n_migrated

(* A message abandoned at the retry cap leaves no gap the receiver
   waits on: with the 0->1 link cut until 100 ms, the first send times
   out, and two sends on the healed link both arrive.  A receiver that
   held arrivals until the lost seq came would deliver neither. *)
let test_net_abandoned_send_leaves_no_gap () =
  let engine, bus = setup () in
  let a = endpoint ~bus ~id:0 ~seed:5 () in
  let b = endpoint ~bus ~id:1 ~seed:6 () in
  let got = ref [] in
  Fabric.Net.on_deliver b (fun m -> got := m.Fabric.Wire.arg :: !got);
  Fieldbus.Bus.set_link_filter bus
    (Some
       (fun ~src ~dst ->
         not (src = 0 && dst = 1 && Sim.Engine.now engine < ms 100)));
  let send arg =
    Fabric.Net.send a ~dst:1 ~kind:Fabric.Wire.Task_word ~arg ~data:0
  in
  send 0;
  ignore
    (Sim.Engine.schedule engine ~at:(ms 150) (fun () ->
         send 1;
         send 2));
  Sim.Engine.run_until engine (ms 500);
  check int "the first send was abandoned" 1 (Fabric.Net.timeouts a);
  check (list int) "both later sends arrive, in order" [ 1; 2 ]
    (List.rev !got)

(* Dying drops the endpoint's sends: a sender that dies at 1 ms with
   its first send unacked (its frame was lost) and restarts at 10 ms
   gets its next send through.  A dead send left in flight would block
   every later send to that peer, since its ack timer fired while the
   sender was down. *)
let test_net_send_after_restart () =
  let engine, bus = setup () in
  let a = endpoint ~bus ~id:0 ~seed:5 () in
  let b = endpoint ~bus ~id:1 ~seed:6 () in
  let got = ref [] in
  Fabric.Net.on_deliver b (fun m -> got := m.Fabric.Wire.arg :: !got);
  let first = ref true in
  Fieldbus.Bus.set_fault bus
    (Some
       (fun f ->
         if !first then begin
           first := false;
           None
         end
         else Some f));
  Fabric.Net.send a ~dst:1 ~kind:Fabric.Wire.Task_word ~arg:0 ~data:0;
  ignore
    (Sim.Engine.schedule engine ~at:(ms 1) (fun () ->
         Fabric.Net.set_alive a false));
  ignore
    (Sim.Engine.schedule engine ~at:(ms 10) (fun () ->
         Fabric.Net.set_alive a true;
         Fabric.Net.send a ~dst:1 ~kind:Fabric.Wire.Task_word ~arg:1 ~data:0));
  Sim.Engine.run_until engine (ms 100);
  check (list int) "the send after the restart arrives" [ 1 ] (List.rev !got)

(* The partition preset fails node 2 over while it is alive; the
   partition heals at 90 ms and node 0 stops suspecting it.  When node
   2 really crashes at 120 ms, node 0's new suspicion fails it over
   again (it holds no task by then, so the failover ends as it starts),
   within the bound.  Failing each node over at most once would leave
   this crash with no failover observed. *)
let test_failover_after_partition_heals () =
  let preset =
    List.find
      (fun (p : Fabric.Preset.t) -> p.name = "partition")
      Fabric.Preset.all
  in
  let plan =
    preset.plan @ Result.get_ok (Fault.Plan.parse "node-crash:node=2,at=120ms")
  in
  match
    Fabric.Preset.run ~config:Fabric.Cluster.default_config ~seed:7
      ~horizon:(ms 400) ~plan ~migration:None preset.assignments
  with
  | Error e -> fail e
  | Ok (cluster, s) ->
    check bool "node 2 was failed over before it crashed" true
      (List.exists
         (fun (tid, _, at) -> tid = 5 && at < ms 120)
         (Fabric.Cluster.migrations cluster));
    check (option int) "a failover of the crash" (Some (Model.Time.us 16_250))
      s.n_failover_latency;
    check bool "within the bound" true
      (match (s.n_failover_latency, s.n_failover_bound) with
      | Some l, Some b -> l <= b
      | _ -> false);
    check (list string) "graceful" [] (errors s)

(* The crash preset loses node 1 at 50 ms; node 0, the coordinator,
   crashes at 100 ms and restarts at 380 ms while node 1 is still
   down.  The restarted node 0 suspects node 1 anew and, as the lowest
   live id, repeats its failover: that repeat finds no orphans and must
   not end node 1's crash again.  Ending it at the re-suspicion put the
   failover latency at 346.25 ms, past the bound. *)
let test_restarted_coordinator_ends_no_crash () =
  let preset =
    List.find
      (fun (p : Fabric.Preset.t) -> p.name = "crash")
      Fabric.Preset.all
  in
  let score extra =
    match
      Fabric.Preset.run ~config:Fabric.Cluster.default_config ~seed:7
        ~horizon:(ms 400)
        ~plan:(preset.plan @ Result.get_ok (Fault.Plan.parse extra))
        ~migration:None preset.assignments
    with
    | Error e -> fail e
    | Ok (_, s) -> s
  in
  let s = score "node-crash:node=0,at=100ms;node-restart:node=0,at=380ms" in
  check (option int) "the first failovers' latency"
    (score "node-crash:node=0,at=100ms").n_failover_latency
    s.n_failover_latency;
  check (option int) "19.036 ms" (Some (Model.Time.us 19_036))
    s.n_failover_latency;
  check (list string) "graceful" [] (errors s)

(* The failover gap of each task migrated off the crashed node, rebuilt
   offline by blame from every kernel a node ran (a re-admission
   replaces the target's kernel, so a live subscriber would miss the
   tail): its first release on the target, less its last on the dead
   node and one period. *)
let failover_gaps cluster assignments =
  let tasks = List.concat_map snd assignments in
  let rows =
    List.sort Model.Task.rm_compare tasks
    |> List.map (fun (t : Model.Task.t) -> (t.id, t.period, t.deadline))
    |> Array.of_list
  in
  let summary node tid =
    let b = Obs.Blame.create ~tasks:rows () in
    List.iter
      (fun k -> Sim.Trace.iter (Obs.Blame.observe b) (Emeralds.Kernel.trace k))
      (Fabric.Cluster.kernels cluster ~node);
    Obs.Blame.summary b ~tid
  in
  match Fabric.Cluster.crashes cluster with
  | [] -> []
  | (dead, _) :: _ ->
    List.filter_map
      (fun (tid, dst, _) ->
        let t = List.find (fun (t : Model.Task.t) -> t.id = tid) tasks in
        match (summary dead tid, summary dst tid) with
        | Some d, Some s -> (
          match (d.s_last_release, s.s_first_release) with
          | Some last, Some first -> Some (first - last - t.period)
          | _ -> None)
        | _ -> None)
      (Fabric.Cluster.migrations cluster)

(* The crash-failover run [Campaign.Eval.run_e2e] makes at each index
   of the 1k seed-42 spec stream: no verdict error, no shed task, and
   every blame-derived failover gap within the static bound.  Two
   lesions must fire: halving the scorecard's bound fails each of the
   first 50 runs, and halving the bound the gaps are held to is
   exceeded 18 times in the first 60. *)
let test_e2e_sweep () =
  let gaps_past_half = ref 0 in
  List.iteri
    (fun index spec ->
      let cluster, score, assignments =
        Campaign.Eval.run_e2e ~index ~ablation:Campaign.Oracle.No_ablation
          spec
      in
      let run = Printf.sprintf "run %d" index in
      check (list string) (run ^ ": verdict") [] (errors score);
      check int (run ^ ": shed") 0 score.Fault.Report.n_shed;
      let bound =
        match Fabric.Cluster.static_bound cluster with
        | Some b -> b
        | None -> fail (run ^ ": no static bound")
      in
      let gaps = failover_gaps cluster assignments in
      List.iter
        (fun gap ->
          check bool (run ^ ": gap within the bound") true (gap <= bound))
        gaps;
      if index < 50 then
        check int (run ^ ": errors under a halved bound") 1
          (List.length
             (errors
                {
                  score with
                  n_failover_bound =
                    Option.map (fun b -> b / 2) score.n_failover_bound;
                }));
      if index < 60 then
        gaps_past_half :=
          !gaps_past_half
          + List.length (List.filter (fun g -> g > bound / 2) gaps))
    (Campaign.Driver.spec_streams
       { Campaign.Driver.default_config with seed = 42; count = 1000 });
  check int "gaps past a halved bound in the first 60 runs" 18 !gaps_past_half

let suite =
  [
    test_case "wire round-trip" `Quick test_wire_roundtrip;
    test_case "wire field validation" `Quick test_wire_field_validation;
    test_case "wire corruption detected" `Quick test_wire_corruption_detected;
    test_case "wire arbitration classes" `Quick test_wire_arbitration_classes;
    test_case "net in-order under drops" `Quick test_net_in_order_under_drops;
    test_case "net duplicate suppression" `Quick test_net_duplicate_suppression;
    test_case "net retry exhaustion" `Quick test_net_retry_exhaustion;
    test_case "crash failover" `Quick test_crash_failover;
    test_case "failover within bound" `Quick test_failover_within_bound;
    test_case "probe bit-identity" `Quick test_probe_bit_identity;
    test_case "overload sheds" `Quick test_overload_sheds;
    test_case "planned migration" `Quick test_planned_migration;
    test_case "every plan clause applied or refused" `Quick test_plan_clauses;
    test_case "scorecard reports the crashes it saw" `Quick
      test_scorecard_reports_crashes;
    test_case "a failover before the crash is not its failover" `Quick
      test_failover_before_crash;
    test_case "a restarted node fails over no live peer" `Quick
      test_restart_fails_over_no_live_peer;
    test_case "an abandoned send leaves no gap" `Quick
      test_net_abandoned_send_leaves_no_gap;
    test_case "a restarted sender sends again" `Quick
      test_net_send_after_restart;
    test_case "a crash after a healed partition is failed over" `Quick
      test_failover_after_partition_heals;
    test_case "a restarted coordinator ends no crash" `Quick
      test_restarted_coordinator_ends_no_crash;
    test_case "1k crash-failover sweep: clean, and both lesions fire" `Quick
      test_e2e_sweep;
  ]
