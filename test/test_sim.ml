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

let test_engine_series_rejects () =
  let e = Sim.Engine.create () in
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  check bool "negative count rejected" true
    (raises (fun () ->
         Sim.Engine.schedule_series e ~count:(-1) ~at:(fun _ -> 0) ignore));
  ignore (Sim.Engine.schedule e ~at:(ms 2) ignore);
  check bool "queue drained" true (Sim.Engine.run_bounded e ~max_events:1);
  check bool "a first instant in the past is rejected" true
    (raises (fun () ->
         Sim.Engine.schedule_series e ~count:2
           ~at:(fun i -> ms (1 + i))
           ignore));
  check int "nothing queued" 0 (Sim.Engine.pending e);
  let at = [| ms 3; ms 5; ms 4 |] in
  let fired = ref 0 in
  Sim.Engine.schedule_series e ~count:3 ~at:(Array.get at) (fun () ->
      incr fired);
  check int "one instant queued at a time" 1 (Sim.Engine.pending e);
  check bool "first instant fires" true (Sim.Engine.step e);
  check bool "a decreasing instant raises when it is queued" true
    (raises (fun () -> ignore (Sim.Engine.step e)));
  check int "the event that queues it does not run" 1 !fired

(* ------------------------------------------------------------------ *)
(* A series against one [schedule] per instant *)

(* One setup step: a one-off event at [at], cancelled by the first
   event to fire when [cancel]; or a series of non-decreasing instants
   whose callback raises at its [raises]-th firing.  Every firing of
   either schedules a nested one-off [spawn] ns later, if given. *)
type setup =
  | Once of { at : int; cancel : bool; spawn : int option }
  | Series of { at : int list; raises : int option; spawn : int option }

let gen_setup =
  let open QCheck2.Gen in
  let spawn = opt ~ratio:0.4 (int_range 0 2) in
  let instants =
    map2
      (fun base steps ->
        List.rev
          (snd
             (List.fold_left
                (fun (t, acc) d -> (t + d, (t + d) :: acc))
                (base, []) steps)))
      (int_range 0 4)
      (list_size (int_range 0 6)
         (frequency [ (3, return 0); (2, int_range 1 3) ]))
  in
  list_size (int_range 1 8)
    (frequency
       [
         ( 3,
           map3
             (fun at cancel spawn -> Once { at; cancel; spawn })
             (int_range 0 10)
             (frequency [ (1, return true); (3, return false) ])
             spawn );
         ( 2,
           map3
             (fun at raises spawn -> Series { at; raises; spawn })
             instants
             (opt ~ratio:0.3 (int_range 0 5))
             spawn );
       ])

(* The firing log of a setup, run until the queue drains (a raising
   callback is noted and the run goes on).  With [~series:false] each
   series instant gets its own [schedule], in order, at the point the
   series is set up: the reference. *)
let run_setup ~series setup =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note s = log := (s, Sim.Engine.now e) :: !log in
  let to_cancel = ref [] in
  let fired name spawn =
    note name;
    List.iter
      (fun (n, h) ->
        note (Printf.sprintf "cancel %s: %b" n (Sim.Engine.cancel e h)))
      !to_cancel;
    to_cancel := [];
    Option.iter
      (fun delay ->
        ignore
          (Sim.Engine.schedule_after e ~delay (fun () ->
               note ("nested " ^ name))))
      spawn
  in
  List.iteri
    (fun i -> function
      | Once { at; cancel; spawn } ->
        let name = Printf.sprintf "once %d" i in
        let h = Sim.Engine.schedule e ~at (fun () -> fired name spawn) in
        if cancel then to_cancel := (name, h) :: !to_cancel
      | Series { at; raises; spawn } ->
        let n = ref 0 in
        let fn () =
          let j = !n in
          incr n;
          fired (Printf.sprintf "series %d.%d" i j) spawn;
          if raises = Some j then raise Exit
        in
        if series then begin
          let at = Array.of_list at in
          Sim.Engine.schedule_series e ~count:(Array.length at)
            ~at:(Array.get at) fn
        end
        else List.iter (fun at -> ignore (Sim.Engine.schedule e ~at fn)) at)
    setup;
  let rec drain () =
    match Sim.Engine.step e with
    | true -> drain ()
    | false -> ()
    | exception Exit ->
      note "raised";
      drain ()
  in
  drain ();
  List.rev !log

let prop_series_order =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count:300
       ~name:"engine: a series fires as one schedule per instant"
       ~print:(fun s ->
         let show log =
           String.concat "; "
             (List.map (fun (name, at) -> Printf.sprintf "%s@%d" name at) log)
         in
         Printf.sprintf "series: %s\nreference: %s"
           (show (run_setup ~series:true s))
           (show (run_setup ~series:false s)))
       gen_setup
       (fun s -> run_setup ~series:true s = run_setup ~series:false s))

(* ------------------------------------------------------------------ *)
(* The engine's queue against the generic heap it replaced *)

module type ENGINE = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> Model.Time.t
  val schedule : t -> at:Model.Time.t -> (unit -> unit) -> handle

  val schedule_series :
    t -> count:int -> at:(int -> Model.Time.t) -> (unit -> unit) -> unit

  val schedule_after : t -> delay:Model.Time.t -> (unit -> unit) -> handle
  val cancel : t -> handle -> bool
  val pending : t -> int
  val step : t -> bool
  val run_until : t -> Model.Time.t -> unit
  val run_bounded : t -> max_events:int -> bool
end

(* What a script step or a firing callback does.  Offsets count from
   [now], and a negative one is in the past.  [Cancel k] cancels the
   [k]-th most recently scheduled event: [Cancel 0] often finds it in
   the front slot, [Cancel 1] often in the heap after the next event
   demoted it, larger ones find events queued deep, fired or already
   cancelled.  [Raise] ends a callback with an exception. *)
type act =
  | At of int * act list
  | After of int * act list
  | Series of int list * act list
  | Cancel of int
  | Raise

type script_op = Do of act | Step | Run_until of int | Run_bounded of int

module Script (E : ENGINE) = struct
  (* The log of a script, then of stepping until nothing is queued:
     every firing with its instant, every return value and exception,
     and [pending] and [now] after each step of the script. *)
  let run ops =
    let e = E.create () in
    let log = ref [] in
    let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
    let handles = ref [] in
    let ids = ref 0 in
    let fresh () =
      incr ids;
      !ids
    in
    let rec perform = function
      | At (d, body) -> queue (fun fn -> E.schedule e ~at:(E.now e + d) fn) body
      | After (d, body) -> queue (fun fn -> E.schedule_after e ~delay:d fn) body
      | Series (offsets, body) ->
        let id = fresh () and base = E.now e and j = ref 0 in
        let offsets = Array.of_list offsets in
        E.schedule_series e ~count:(Array.length offsets)
          ~at:(fun i -> base + offsets.(i))
          (fun () ->
            note "fire %d.%d @%d" id !j (E.now e);
            incr j;
            List.iter perform body)
      | Cancel k ->
        note "cancel %d: %s" k
          (match List.nth_opt !handles k with
          | None -> "none"
          | Some h -> string_of_bool (E.cancel e h))
      | Raise -> raise Exit
    and queue schedule body =
      let id = fresh () in
      let h =
        schedule (fun () ->
            note "fire %d @%d" id (E.now e);
            List.iter perform body)
      in
      handles := h :: !handles
    in
    let top what f =
      (match f () with
      | r -> note "%s -> %s" what r
      | exception Exit -> note "%s raised" what
      | exception Invalid_argument m -> note "%s: %s" what m);
      note "pending %d now %d" (E.pending e) (E.now e)
    in
    List.iter
      (function
        | Do act ->
          top "do" (fun () ->
              perform act;
              "")
        | Step -> top "step" (fun () -> string_of_bool (E.step e))
        | Run_until d ->
          top "run_until" (fun () ->
              E.run_until e (E.now e + d);
              "")
        | Run_bounded n ->
          top "run_bounded" (fun () ->
              string_of_bool (E.run_bounded e ~max_events:n)))
      ops;
    while E.pending e > 0 do
      top "drain" (fun () -> string_of_bool (E.step e))
    done;
    List.rev !log
end

module Run_engine = Script (Sim.Engine)
module Run_ref = Script (Engine_ref)

let gen_script =
  let open QCheck2.Gen in
  let offset =
    frequency
      [ (1, int_range (-2) (-1)); (6, int_range 0 3); (2, int_range 4 30) ]
  in
  (* mostly non-decreasing instants; a step back raises when queued *)
  let instants =
    map2
      (fun first steps ->
        List.rev
          (List.fold_left
             (fun acc d -> (List.hd acc + d) :: acc)
             [ first ] steps))
      offset
      (list_size (int_range 0 4)
         (frequency [ (4, int_range 0 3); (1, return (-1)) ]))
  in
  let rec act depth =
    let body =
      if depth = 0 then return []
      else list_size (int_range 0 3) (act (depth - 1))
    in
    frequency
      [
        (4, map2 (fun d b -> At (d, b)) offset body);
        (2, map2 (fun d b -> After (d, b)) offset body);
        (1, map2 (fun at b -> Series (at, b)) instants body);
        ( 3,
          map
            (fun k -> Cancel k)
            (frequency
               [ (3, return 0); (3, int_range 1 3); (1, int_range 4 30) ]) );
        (1, return Raise);
      ]
  in
  list_size (int_range 1 30)
    (frequency
       [
         (6, map (fun a -> Do a) (act 2));
         (3, return Step);
         (1, map (fun d -> Run_until d) (int_range (-1) 20));
         (1, map (fun n -> Run_bounded n) (int_range (-1) 5));
       ])

let prop_engine_matches_reference =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count:500
       ~name:"engine: same log as the reference queue"
       ~print:(fun ops ->
         Printf.sprintf "engine: %s\nreference: %s"
           (String.concat "; " (Run_engine.run ops))
           (String.concat "; " (Run_ref.run ops)))
       gen_script
       (fun ops -> Run_engine.run ops = Run_ref.run ops))

(* An event whose callback holds the only pointer to a fresh block;
   [w] gets a weak pointer to the block at [slot]. *)
let[@inline never] watched e w slot ~at =
  let block = Bytes.make 64 'x' in
  Weak.set w slot (Some block);
  Sim.Engine.schedule e ~at (fun () -> ignore (Sys.opaque_identity block))

(* Fire or cancel nine watched events, from the front slot and from the
   heap, and drop every handle.  The last heap entry moves into the hole
   a cancel leaves, so [moved] leaves the queue from a place it was
   moved to. *)
let[@inline never] fire_and_cancel e w =
  ignore (watched e w 0 ~at:(ms 1));
  ignore (Sim.Engine.step e);
  ignore (watched e w 1 ~at:(ms 2));
  ignore (watched e w 2 ~at:(ms 3));
  ignore (Sim.Engine.step e);
  ignore (Sim.Engine.step e);
  let demoted = watched e w 3 ~at:(ms 5) in
  ignore (watched e w 4 ~at:(ms 4));
  ignore (Sim.Engine.cancel e demoted);
  ignore (Sim.Engine.step e);
  ignore (Sim.Engine.cancel e (watched e w 5 ~at:(ms 6)));
  let front = watched e w 6 ~at:(ms 7) in
  let inner = watched e w 7 ~at:(ms 150) in
  let moved = watched e w 8 ~at:(ms 160) in
  ignore (Sim.Engine.cancel e inner);
  ignore (Sim.Engine.cancel e moved);
  ignore (Sim.Engine.cancel e front)

let test_engine_drops_done_events () =
  let e = Sim.Engine.create () in
  for i = 1 to 20 do
    ignore (Sim.Engine.schedule e ~at:(ms (100 + i)) ignore)
  done;
  let w = Weak.create 9 in
  fire_and_cancel e w;
  Gc.full_major ();
  for slot = 0 to Weak.length w - 1 do
    check bool (Printf.sprintf "block %d collected" slot) false
      (Weak.check w slot)
  done;
  check int "the rest still queued" 20 (Sim.Engine.pending e)

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

let test_trace_responses () =
  let exact = [ 120_000; 45_000; 45_000; 3_000_000; 7 ] in
  let kept = Sim.Trace.create () in
  List.iteri
    (fun i r ->
      Sim.Trace.emit kept ~at:(ms i)
        (Sim.Trace.Job_complete { tid = 4; job = i; response = r }))
    exact;
  check (list int) "kept: exact order" exact (Sim.Trace.responses kept ~tid:4)

(* ------------------------------------------------------------------ *)
(* The byte log against the list store it replaced ([Trace_ref]) *)

let gen_int =
  QCheck2.Gen.(
    frequency
      [
        (6, int_range (-3) 300);
        (2, oneofl [ 0; -1; max_int; min_int ]);
        (1, int);
      ])

(* Equal content at another address. *)
let fresh s = String.init (String.length s) (String.get s)

(* Shared literals (matched by address), fresh copies of them, and
   arbitrary bytes. *)
let literals =
  [
    "sem"; "delay"; ""; "mbox-empty"; "\xc3\xa9t\xc3\xa9";
    "choice: \xe2\x86\x92 tau2";
  ]

let gen_string =
  QCheck2.Gen.(
    frequency
      [
        (4, oneofl literals);
        (2, map fresh (oneofl literals));
        (1, string_size ~gen:char (int_range 0 6));
      ])

let gen_entry =
  let open Sim.Trace in
  let open QCheck2.Gen in
  let i = gen_int and s = gen_string in
  oneof
    [
      map3 (fun tid job deadline -> Job_release { tid; job; deadline }) i i i;
      map3 (fun tid job response -> Job_complete { tid; job; response }) i i i;
      map3 (fun tid job lateness -> Deadline_miss { tid; job; lateness }) i i i;
      map2
        (fun from_tid to_tid -> Context_switch { from_tid; to_tid })
        (opt i) (opt i);
      map2 (fun tid reason -> Thread_block { tid; reason }) i s;
      map (fun tid -> Thread_unblock { tid }) i;
      map2 (fun tid sem -> Sem_acquired { tid; sem }) i i;
      map2 (fun tid sem -> Sem_blocked { tid; sem }) i i;
      map2 (fun tid sem -> Sem_released { tid; sem }) i i;
      map2 (fun holder from_tid -> Priority_inherit { holder; from_tid }) i i;
      map (fun holder -> Priority_restore { holder }) i;
      map2 (fun tid sem -> Approach_parked { tid; sem }) i i;
      map3 (fun tid mailbox words -> Msg_sent { tid; mailbox; words }) i i i;
      map4
        (fun tid mailbox words queued_for ->
          Msg_received { tid; mailbox; words; queued_for })
        i i i i;
      map3 (fun tid state seq -> State_written { tid; state; seq }) i i i;
      map3 (fun tid state seq -> State_read { tid; state; seq }) i i i;
      map (fun irq -> Interrupt { irq }) i;
      map2
        (fun category cost -> Overhead { category; cost })
        (oneofl ovh_categories) i;
      map4
        (fun tid job used budget -> Budget_overrun { tid; job; used; budget })
        i i i i;
      map2 (fun tid job -> Job_killed { tid; job }) i i;
      map3 (fun tid job reason -> Job_shed { tid; job; reason }) i i s;
      map3 (fun tid pool live -> Block_alloc { tid; pool; live }) i i i;
      map3 (fun tid pool live -> Block_free { tid; pool; live }) i i i;
      map2 (fun tid pool -> Pool_oom { tid; pool }) i i;
      map4
        (fun tid job pool count -> Pool_leak { tid; job; pool; count })
        i i i i;
      map4
        (fun tid job live quota -> Quota_exceeded { tid; job; live; quota })
        i i i i;
      map3
        (fun tid job word -> Input_word { tid; job; word })
        i i
        (oneof [ int64; oneofl [ Int64.min_int; -1L; 0L; Int64.max_int ] ]);
      map4 (fun tid pc idx taken -> Branch { tid; pc; idx; taken }) i i i bool;
      map4
        (fun node dir frame_id words ->
          Net_frame { node; dir; frame_id; words })
        i
        (oneofl [ Tx; Rx; Drop; Corrupt ])
        i i;
      map3 (fun node seq attempt -> Net_retry { node; seq; attempt }) i i i;
      map2 (fun node seq -> Net_timeout { node; seq }) i i;
      map2 (fun frame_id delay -> Net_arb { frame_id; delay }) i i;
      map (fun s -> Note s) s;
    ]

(* A stream drives both stores: events with an [at] step (negative
   steps go back in time, extreme ones wrap), through [emit] or
   [record], interleaved with the kernel's two other hooks. *)
type op =
  | Emit of int * Sim.Trace.entry
  | Record of int * Sim.Trace.entry
  | Ready of bool
  | Busy of int

let gen_ops =
  QCheck2.Gen.(
    let op =
      frequency
        [
          (5, map2 (fun dt e -> Emit (dt, e)) gen_int gen_entry);
          (3, map2 (fun dt e -> Record (dt, e)) gen_int gen_entry);
          (1, map (fun b -> Ready b) bool);
          (1, map (fun d -> Busy d) (int_range 0 1000));
        ]
    in
    (* the long streams regrow the log from 256 bytes several times *)
    list_size (frequency [ (4, int_range 0 60); (1, int_range 300 1500) ]) op)

let run_ops ops =
  let tr = Sim.Trace.create () and r = Trace_ref.create () in
  let at = ref 0 in
  List.iter
    (function
      | Emit (dt, entry) ->
        at := !at + dt;
        Sim.Trace.emit tr ~at:!at entry;
        Trace_ref.emit r ~at:!at entry
      | Record (dt, entry) ->
        at := !at + dt;
        let st = { Sim.Trace.at = !at; entry } in
        Sim.Trace.record tr st;
        Trace_ref.record r st
      | Ready b ->
        Sim.Trace.set_outgoing_ready tr b;
        Trace_ref.set_outgoing_ready r b
      | Busy d ->
        Sim.Trace.add_busy tr d;
        Trace_ref.add_busy r d)
    ops;
  (tr, r)

let agrees (tr, r) =
  let expected = Trace_ref.entries r in
  let walked = ref [] in
  Sim.Trace.iter (fun st -> walked := st :: !walked) tr;
  Sim.Trace.entries tr = expected
  && List.rev !walked = expected
  && Sim.Trace.length tr = Trace_ref.length r
  && Sim.Trace.context_switches tr = Trace_ref.context_switches r
  && Sim.Trace.deadline_misses tr = Trace_ref.deadline_misses r
  && Sim.Trace.preemptions tr = Trace_ref.preemptions r
  && Sim.Trace.overhead_total tr = Trace_ref.overhead_total r
  && Sim.Trace.overhead_by_category tr = Trace_ref.overhead_by_category r
  && Sim.Trace.first_miss tr = Trace_ref.first_miss r
  && Sim.Trace.budget_overruns tr = Trace_ref.budget_overruns r
  && Sim.Trace.jobs_killed tr = Trace_ref.jobs_killed r
  && Sim.Trace.jobs_shed tr = Trace_ref.jobs_shed r
  && Sim.Trace.busy_time tr = Trace_ref.busy_time r
  && Sim.Trace.to_csv tr = Sim.Trace.csv_of_stamped expected

let trace_fuzz ~count name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let prop_log_matches_reference =
  trace_fuzz ~count:100 "trace: log matches the list reference"
    gen_ops
    (fun ops -> agrees (run_ops ops))

(* Field [j] of an entry changed (the [j]-th in declaration order; no
   change when the entry has fewer fields). *)
let mutate j (e : Sim.Trace.entry) : Sim.Trace.entry =
  let open Sim.Trace in
  let i k v = if k = j then v + 1 else v in
  let s k v = if k = j then v ^ "x" else v in
  let o k v =
    if k <> j then v else match v with None -> Some 0 | Some x -> Some (x + 1)
  in
  let next_dir = function
    | Tx -> Rx
    | Rx -> Drop
    | Drop -> Corrupt
    | Corrupt -> Tx
  in
  let next_ovh c = List.nth ovh_categories ((ovh_index c + 1) mod ovh_count) in
  match e with
  | Job_release { tid; job; deadline } ->
    Job_release { tid = i 0 tid; job = i 1 job; deadline = i 2 deadline }
  | Job_complete { tid; job; response } ->
    Job_complete { tid = i 0 tid; job = i 1 job; response = i 2 response }
  | Deadline_miss { tid; job; lateness } ->
    Deadline_miss { tid = i 0 tid; job = i 1 job; lateness = i 2 lateness }
  | Context_switch { from_tid; to_tid } ->
    Context_switch { from_tid = o 0 from_tid; to_tid = o 1 to_tid }
  | Thread_block { tid; reason } ->
    Thread_block { tid = i 0 tid; reason = s 1 reason }
  | Thread_unblock { tid } -> Thread_unblock { tid = i 0 tid }
  | Sem_acquired { tid; sem } -> Sem_acquired { tid = i 0 tid; sem = i 1 sem }
  | Sem_blocked { tid; sem } -> Sem_blocked { tid = i 0 tid; sem = i 1 sem }
  | Sem_released { tid; sem } -> Sem_released { tid = i 0 tid; sem = i 1 sem }
  | Priority_inherit { holder; from_tid } ->
    Priority_inherit { holder = i 0 holder; from_tid = i 1 from_tid }
  | Priority_restore { holder } -> Priority_restore { holder = i 0 holder }
  | Approach_parked { tid; sem } ->
    Approach_parked { tid = i 0 tid; sem = i 1 sem }
  | Msg_sent { tid; mailbox; words } ->
    Msg_sent { tid = i 0 tid; mailbox = i 1 mailbox; words = i 2 words }
  | Msg_received { tid; mailbox; words; queued_for } ->
    Msg_received
      {
        tid = i 0 tid;
        mailbox = i 1 mailbox;
        words = i 2 words;
        queued_for = i 3 queued_for;
      }
  | State_written { tid; state; seq } ->
    State_written { tid = i 0 tid; state = i 1 state; seq = i 2 seq }
  | State_read { tid; state; seq } ->
    State_read { tid = i 0 tid; state = i 1 state; seq = i 2 seq }
  | Interrupt { irq } -> Interrupt { irq = i 0 irq }
  | Overhead { category; cost } ->
    Overhead
      {
        category = (if j = 0 then next_ovh category else category);
        cost = i 1 cost;
      }
  | Budget_overrun { tid; job; used; budget } ->
    Budget_overrun
      { tid = i 0 tid; job = i 1 job; used = i 2 used; budget = i 3 budget }
  | Job_killed { tid; job } -> Job_killed { tid = i 0 tid; job = i 1 job }
  | Job_shed { tid; job; reason } ->
    Job_shed { tid = i 0 tid; job = i 1 job; reason = s 2 reason }
  | Block_alloc { tid; pool; live } ->
    Block_alloc { tid = i 0 tid; pool = i 1 pool; live = i 2 live }
  | Block_free { tid; pool; live } ->
    Block_free { tid = i 0 tid; pool = i 1 pool; live = i 2 live }
  | Pool_oom { tid; pool } -> Pool_oom { tid = i 0 tid; pool = i 1 pool }
  | Pool_leak { tid; job; pool; count } ->
    Pool_leak
      { tid = i 0 tid; job = i 1 job; pool = i 2 pool; count = i 3 count }
  | Quota_exceeded { tid; job; live; quota } ->
    Quota_exceeded
      { tid = i 0 tid; job = i 1 job; live = i 2 live; quota = i 3 quota }
  | Input_word { tid; job; word } ->
    Input_word
      {
        tid = i 0 tid;
        job = i 1 job;
        word = (if j = 2 then Int64.succ word else word);
      }
  | Branch { tid; pc; idx; taken } ->
    Branch
      {
        tid = i 0 tid;
        pc = i 1 pc;
        idx = i 2 idx;
        taken = (if j = 3 then not taken else taken);
      }
  | Net_frame { node; dir; frame_id; words } ->
    Net_frame
      {
        node = i 0 node;
        dir = (if j = 1 then next_dir dir else dir);
        frame_id = i 2 frame_id;
        words = i 3 words;
      }
  | Net_retry { node; seq; attempt } ->
    Net_retry { node = i 0 node; seq = i 1 seq; attempt = i 2 attempt }
  | Net_timeout { node; seq } -> Net_timeout { node = i 0 node; seq = i 1 seq }
  | Net_arb { frame_id; delay } ->
    Net_arb { frame_id = i 0 frame_id; delay = i 1 delay }
  | Note n -> Note (s 0 n)

(* [f] applied to every string of a stream. *)
let map_strings f ops =
  let entry : Sim.Trace.entry -> Sim.Trace.entry = function
    | Thread_block { tid; reason } -> Thread_block { tid; reason = f reason }
    | Job_shed { tid; job; reason } -> Job_shed { tid; job; reason = f reason }
    | Note s -> Note (f s)
    | e -> e
  in
  List.map
    (function
      | Emit (dt, e) -> Emit (dt, entry e)
      | Record (dt, e) -> Record (dt, entry e)
      | op -> op)
    ops

(* The second stream of a pair: the same events with every string at
   another address, one string renamed wherever it occurs (same table
   slots, other contents), a single-field or single-step change of one
   event, a prefix, an extra busy charge, or an unrelated stream. *)
let gen_pair =
  QCheck2.Gen.(
    gen_ops >>= fun a ->
    let n = List.length a in
    let change k f = List.mapi (fun idx op -> if idx = k then f op else op) a in
    let variant =
      frequency
        [
          (2, return (map_strings fresh a));
          ( 1,
            map
              (fun lit ->
                map_strings (fun s -> if s = lit then s ^ "'" else s) a)
              (oneofl literals) );
          ( 5,
            map2
              (fun k j ->
                (* field [j] of event [k]; [j = -1] is its [at] step *)
                change k (function
                  | Emit (dt, e) when j < 0 -> Emit (dt + 1, e)
                  | Emit (dt, e) -> Emit (dt, mutate j e)
                  | Record (dt, e) when j < 0 -> Record (dt + 1, e)
                  | Record (dt, e) -> Record (dt, mutate j e)
                  | Ready b -> Ready (not b)
                  | Busy d -> Busy (d + 1)))
              (int_range 0 (max 0 (n - 1)))
              (int_range (-1) 4) );
          ( 1,
            map
              (fun k -> List.filteri (fun idx _ -> idx < k) a)
              (int_range 0 n) );
          (1, return (a @ [ Busy 1 ]));
          (1, gen_ops);
        ]
    in
    map (fun b -> (a, b)) variant)

let prop_equal_matches_reference =
  trace_fuzz ~count:150 "trace: equal agrees with the list reference" gen_pair
    (fun (a, b) ->
      let ta, ra = run_ops a and tb, rb = run_ops b in
      let verdict = Trace_ref.equal ra rb in
      Sim.Trace.equal ta tb = verdict
      && Sim.Trace.equal tb ta = verdict
      && (Sim.Trace.signature ta = Sim.Trace.signature tb) = verdict)

let suite =
  [
    test_case "engine: time order" `Quick test_engine_order;
    test_case "trace: every constructor renders" `Quick
      test_trace_exhaustive_render;
    test_case "trace: responses of a kept trace" `Quick test_trace_responses;
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
    prop_log_matches_reference;
    prop_equal_matches_reference;
    test_case "engine: series rejects" `Quick test_engine_series_rejects;
    prop_series_order;
    prop_engine_matches_reference;
    test_case "engine: fired and cancelled events are unreachable" `Quick
      test_engine_drops_done_events;
  ]
