(* Every named scenario through every subcommand that takes --preset,
   with short horizons: each run must exit 0, 1 or 2 with no exception
   on stderr, and the subcommands that run the kernel on a scenario's
   programs must refuse a static-only scenario with exit 2, saying so.
   The subcommands that write JSON or SARIF run once more per such
   format, and a run that exits 0 or 1 must print a document that
   Util.Json.parse accepts; so must inject's JSON report with a
   flight-recorder dump, whose note goes to stderr.  Those subcommands
   run once more with --json, which must exit and print as --format
   json does.  Flag values the kernel or the model checker would raise
   on, or whose time would overflow an int of nanoseconds, must exit 2
   as well, and so must fault plans and task files the key=value
   reader refuses.

   Usage: matrix.exe PATH-TO-emeralds_cli.exe *)

let horizon = [ "--horizon-ms"; "50" ]

let subcommands =
  [
    ("schedulability", []);
    ("simulate", horizon);
    ("sensitivity", []);
    ("analyze", []);
    ("lint", []);
    ("footprint", []);
    ("check", horizon @ [ "--max-states"; "2000" ]);
    ("inject", horizon);
    ("trace", horizon);
    ("explain", horizon);
  ]

let runs_kernel = [ "inject"; "trace"; "explain" ]

let json_formats =
  [
    ("analyze", [ "json"; "sarif" ]);
    ("lint", [ "json"; "sarif" ]);
    ("check", [ "json"; "sarif" ]);
    ("inject", [ "json"; "sarif" ]);
    ("explain", [ "json"; "sarif" ]);
    ("trace", [ "json"; "perfetto" ]);
  ]

let bad_values =
  [
    [ "simulate"; "--random"; "0" ];
    [ "simulate"; "--random"; "3" ] (* the default CSD-3 needs 5 tasks *);
    [ "check"; "--read-span-us=-5" ];
    [ "check"; "--sporadic"; "1:5:2" ];
    [ "check"; "--sporadic"; "99:1:2" ];
    [ "explain"; "--task"; "99" ];
    (* run lengths and budgets that would check nothing *)
    [ "simulate"; "--horizon-ms=-5" ];
    [ "inject"; "--horizon-ms=-5" ];
    [ "trace"; "--horizon-ms=-5" ];
    [ "explain"; "--horizon-ms=-5" ];
    [ "check"; "--preset"; "table2"; "--horizon-ms=-10" ];
    [ "check"; "--max-states=0" ];
    [ "check"; "--max-depth=-1" ];
    (* time values whose nanoseconds overflow an int *)
    [ "simulate"; "--horizon-ms"; "9223372036854"; "--preset"; "table2";
      "--sched"; "edf" ];
    [ "inject"; "--preset"; "engine"; "--horizon-ms"; "5000000000000" ];
    [ "check"; "--preset"; "engine"; "--horizon-ms"; "9223372036854" ];
    [ "explain"; "--horizon-ms"; "9223372036854" ];
    [ "trace"; "--horizon-ms"; "9223372036854" ];
    [ "fabric"; "--horizon-ms"; "9223372036854" ];
    [ "check"; "--read-span-us"; "9223372036854775" ];
    [ "check"; "--sporadic"; "1:9223372036854:9223372036854" ];
    (* plan clauses on a task the scenario lacks, and a duration whose
       nanoseconds overflow an int *)
    [ "inject"; "--plan"; "burst:tid=99,at=20ms,count=3,spacing=1ms" ];
    [ "inject"; "--plan"; "wcet-scale:tid=99,pct=400" ];
    [ "inject"; "--plan";
      "irq-storm:irq=9,at=10000000000000ms,count=1,spacing=1ms" ];
    (* an unknown key, a repeated one, and a jitter amplitude whose
       draw would wrap *)
    [ "inject"; "--plan"; "wcet-scale:tid=2,pct=400,form=3" ];
    [ "inject"; "--plan"; "wcet-scale:tid=2,pct=400,pct=100" ];
    [ "inject"; "--plan"; "jitter:tid=1,amp=2305843009213693952ns" ];
    (* clauses a plan's consumer does not interpret: a node the fabric
       lacks, single-kernel faults in a fabric, fabric faults in an
       inject run, and the retired drift clause *)
    [ "fabric"; "--preset"; "steady"; "--plan"; "node-crash:node=99,at=20ms" ];
    [ "fabric"; "--plan"; "wcet-scale:tid=1,pct=400" ];
    [ "fabric"; "--plan"; "link-partition:a=0,b=99,from=1ms,until=5ms" ];
    [ "inject"; "--preset"; "engine"; "--plan"; "frame-drop:one-in=4" ];
    [ "inject"; "--plan"; "drift:ppm=500" ];
    [ "inject"; "--plan"; "node-crash:node=1,at=10ms" ];
    (* node clauses that would change nothing when they fire: a restart
       of a node the plan has not crashed, a crash of one it has *)
    [ "fabric"; "--plan"; "node-restart:node=1,at=10ms" ];
    [ "fabric"; "--plan"; "node-crash:node=1,at=10ms;node-crash:node=1,at=20ms" ];
    (* generator knobs the generator would clamp: a task count below 1,
       a utilization outside (0, 0.85] *)
    [ "campaign"; "--count"; "3"; "--tasks=0" ];
    [ "campaign"; "--count"; "3"; "--tasks=-3" ];
    [ "campaign"; "--count"; "3"; "--target-u=nan" ];
    [ "campaign"; "--count"; "3"; "--target-u=-1" ];
    [ "campaign"; "--count"; "3"; "--target-u=0.9" ];
  ]

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let () =
  let cli = Sys.argv.(1) in
  let out = Filename.temp_file "matrix" ".out" in
  let err = Filename.temp_file "matrix" ".err" in
  let failures = ref 0 in
  let run argv =
    let code =
      Filename.quote_command cli argv ~stdout:out ~stderr:err |> Sys.command
    in
    let read file = In_channel.with_open_bin file In_channel.input_all in
    let stderr = read err in
    let fail why =
      incr failures;
      Printf.printf "FAIL emeralds_cli %s: %s (exit %d)\n%s\n"
        (String.concat " " argv) why code stderr
    in
    (code, read out, stderr, fail)
  in
  let parses stdout fail =
    match Util.Json.parse stdout with
    | Ok _ -> ()
    | Error e -> fail ("stdout does not parse as JSON: " ^ e)
  in
  let scenario_run (e : Workload.Scenario.entry) sub args ~json =
    let code, stdout, stderr, fail =
      run (sub :: "--preset" :: e.name :: args)
    in
    if e.static_only <> None && List.mem sub runs_kernel then begin
      if code <> 2 || not (contains stderr "static-only") then
        fail "a static-only scenario must be refused with exit 2"
    end
    else if code < 0 || code > 2 then fail "exit code outside {0, 1, 2}"
    else if contains (String.lowercase_ascii stderr) "exception" then
      fail "exception on stderr"
    else if json && code <= 1 then parses stdout fail;
    (code, stdout)
  in
  List.iter
    (fun (e : Workload.Scenario.entry) ->
      List.iter
        (fun (sub, args) ->
          ignore (scenario_run e sub args ~json:false);
          List.iter
            (fun fmt ->
              let reply =
                scenario_run e sub (args @ [ "--format"; fmt ]) ~json:true
              in
              if fmt = "json" then
                let code, stdout, _, fail =
                  run ((sub :: "--preset" :: e.name :: args) @ [ "--json" ])
                in
                if (code, stdout) <> reply then
                  fail "--json must exit and print as --format json does")
            (Option.value ~default:[] (List.assoc_opt sub json_formats)))
        subcommands)
    Workload.Scenario.catalog;
  let dump = Filename.temp_file "matrix" ".perfetto" in
  (let code, stdout, _, fail =
     run [ "inject"; "--preset"; "overrun-demo"; "--json"; "--flightrec"; dump ]
   in
   if code > 1 then fail "exit code outside {0, 1}" else parses stdout fail);
  Sys.remove dump;
  (* a task file whose line repeats a key *)
  let tasks = Filename.temp_file "matrix" ".tasks" in
  Out_channel.with_open_bin tasks (fun oc ->
      output_string oc "task 1 period=4ms wcet=1ms period=8ms\n");
  List.iter
    (fun argv ->
      let code, _, _, fail = run argv in
      if code <> 2 then fail "a bad flag value must exit 2")
    (bad_values
    @ List.map
        (fun sub -> [ sub; "--file"; tasks ])
        [ "schedulability"; "simulate"; "sensitivity" ]);
  Sys.remove tasks;
  Sys.remove out;
  Sys.remove err;
  if !failures > 0 then exit 1
