(* One CLI subcommand over a list of runs, printed as one golden: per
   run its label and exit code, then its stdout.

   - [check]: the model checker's verdict on every catalog scenario
     under both schedulers, `check --preset NAME --sched S --horizon-ms
     50 --max-states 2000 --json`, one JSON line per run, so the golden
     pins verdicts, messages and exploration counts together;
   - [sensitivity]: `sensitivity --preset NAME` for every catalog name;
   - [experiment]: the paper's experiments that finish in well under a
     second, `experiment NAME` at the default seed and workload count;
   - [experiment-slow]: `experiment ablation` and `experiment
     figures3to5 --workloads 5`, which take seconds, so their golden is
     diffed under its own alias rather than by `dune runtest`;
   - [fabric]: `fabric --preset NAME --format F` for the five fabric
     presets in text, JSON and SARIF, the scorecard and its verdict.

   Usage: sweep.exe PATH-TO-emeralds_cli.exe
     check|sensitivity|experiment|experiment-slow|fabric *)

let catalog = List.map (fun (e : Workload.Scenario.entry) -> e.name)
    Workload.Scenario.catalog

(* (label, argv, separator between the exit code and the output) *)
let runs = function
  | "check" ->
    List.concat_map
      (fun name ->
        List.map
          (fun sched ->
            ( name ^ " " ^ sched,
              [ "check"; "--preset"; name; "--sched"; sched; "--horizon-ms";
                "50"; "--max-states"; "2000"; "--json" ],
              " " ))
          [ "fp"; "edf" ])
      catalog
  | "sensitivity" ->
    List.map
      (fun name -> (name, [ "sensitivity"; "--preset"; name ], "\n"))
      catalog
  | "experiment" ->
    List.map
      (fun name -> (name, [ "experiment"; name ], "\n"))
      [ "table1"; "figure2"; "table3"; "semaphores"; "ipc"; "cyclic";
        "interrupt" ]
  | "experiment-slow" ->
    [
      ("ablation", [ "experiment"; "ablation" ], "\n");
      ( "figures3to5 --workloads 5",
        [ "experiment"; "figures3to5"; "--workloads"; "5" ],
        "\n" );
    ]
  | "fabric" ->
    List.concat_map
      (fun name ->
        List.map
          (fun format ->
            ( name ^ " " ^ format,
              [ "fabric"; "--preset"; name; "--format"; format ],
              if format = "text" then "\n" else " " ))
          [ "text"; "json"; "sarif" ])
      [ "steady"; "migrate"; "crash"; "crash-storm"; "partition" ]
  | s -> failwith ("sweep: unknown subcommand " ^ s)

let () =
  let cli = Sys.argv.(1) in
  let out = Filename.temp_file "sweep" ".out" in
  List.iter
    (fun (label, argv, sep) ->
      let code = Sys.command (Filename.quote_command cli argv ~stdout:out) in
      Printf.printf "%s exit %d:%s%s" label code sep
        (In_channel.with_open_bin out In_channel.input_all))
    (runs Sys.argv.(2));
  Sys.remove out
