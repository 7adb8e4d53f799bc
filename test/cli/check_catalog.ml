(* The model checker's verdict on every catalog scenario under both
   schedulers: one line per run, the exit code and then the JSON report
   of `check --preset NAME --sched S --horizon-ms 50 --max-states 2000
   --json`, so the golden pins verdicts, messages and exploration
   counts together.

   Usage: check_catalog.exe PATH-TO-emeralds_cli.exe *)

let () =
  let cli = Sys.argv.(1) in
  let out = Filename.temp_file "check" ".out" in
  List.iter
    (fun (e : Workload.Scenario.entry) ->
      List.iter
        (fun sched ->
          let argv =
            [ "check"; "--preset"; e.name; "--sched"; sched; "--horizon-ms";
              "50"; "--max-states"; "2000"; "--json" ]
          in
          let code =
            Sys.command (Filename.quote_command cli argv ~stdout:out)
          in
          Printf.printf "%s %s exit %d: %s" e.name sched code
            (In_channel.with_open_bin out In_channel.input_all))
        [ "fp"; "edf" ])
    Workload.Scenario.catalog;
  Sys.remove out
