(* Argument vocabulary shared by the CLI subcommands: scheduler and
   workload selection, the output format, the exit-code convention,
   and the validated observability knobs.  Every subcommand composes
   these rather than re-declaring its own spellings, so `--seed`,
   `--preset` or `--format` mean the same thing everywhere, and every
   name is checked by a cmdliner converter before a subcommand runs. *)

open Cmdliner

(* Exit-code convention, shared by every subcommand: 0 = clean, 1 =
   findings/violations in an otherwise valid run, 2 = bad invocation
   (unknown name, unreadable file, conflicting arguments).  A name a
   converter rejects is a cmdliner usage error, which the entry point
   maps to 2 as well. *)
let bad_invocation fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let one_of names = String.concat ", " names
let names pairs = one_of (List.map fst pairs)

(* A converter over a closed vocabulary: [parse] reads one spelling
   (the library's own reader where there is one); [names] lists the
   spellings for the error. *)
let vocab ~what names parse print =
  let parse s =
    match parse s with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S (expected: %s)" what s (one_of names)))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (print v))

(* A vocabulary given as a name table; [ci] matches any case, as the
   flags that always lowercased their input do. *)
let table ?(ci = false) ~what pairs =
  vocab ~what (List.map fst pairs)
    (fun s ->
      List.assoc_opt (if ci then String.lowercase_ascii s else s) pairs)
    (fun v -> fst (List.find (fun (_, v') -> v' == v) pairs))

(* A comma-separated list over [conv]; every element must parse. *)
let comma_list conv =
  let parse s =
    List.fold_right
      (fun x acc ->
        match (Arg.conv_parser conv x, acc) with
        | Ok v, Ok vs -> Ok (v :: vs)
        | Error m, _ | _, Error m -> Error m)
      (String.split_on_char ',' s) (Ok [])
  in
  let print =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
      (Arg.conv_printer conv)
  in
  Arg.conv (parse, print)

let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = at_least 1

let sched_conv =
  let named =
    Emeralds.Sched.
      [
        ("edf", Edf); ("rm", Rm); ("rm-heap", Rm_heap); ("rmheap", Rm_heap);
        ("csd2", Csd [ 3 ]); ("csd3", Csd [ 2; 3 ]); ("csd4", Csd [ 2; 2; 3 ]);
      ]
  in
  let parse s =
    let l = String.lowercase_ascii s in
    match List.assoc_opt l named with
    | Some spec -> Ok spec
    | None when String.length l > 4 && String.sub l 0 4 = "csd:" -> (
      (* an explicit partition "csd:3,4" *)
      let sizes = String.sub l 4 (String.length l - 4) in
      match List.map int_of_string (String.split_on_char ',' sizes) with
      | sizes -> Ok (Emeralds.Sched.Csd sizes)
      | exception _ ->
        Error (`Msg "bad CSD partition, expected csd:S1,S2,..."))
    | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print ppf spec =
    Format.pp_print_string ppf (Emeralds.Sched.spec_name spec)
  in
  Arg.conv (parse, print)

let sched ?(doc = "") default =
  Arg.(
    value
    & opt sched_conv default
    & info [ "sched" ] ~docv:"SCHED"
        ~doc:
          ("Scheduler: edf, rm, rm-heap, csd2, csd3, csd4 or csd:S1,S2,..."
          ^ doc))

(* The kernel refuses a CSD partition larger than its task set: a bad
   invocation for every subcommand that runs one. *)
let check_fits spec taskset =
  let n_tasks = Model.Taskset.size taskset in
  try Emeralds.Sched.validate_partition spec ~n_tasks
  with Invalid_argument msg ->
    bad_invocation "--sched %s does not fit a %d-task set: %s"
      (Emeralds.Sched.spec_name spec) n_tasks msg

(* A task id given on the command line must name one of the
   scenario's tasks. *)
let check_task ~flag (s : Workload.Scenario.t) tid =
  let tasks = Model.Taskset.tasks s.taskset in
  if not (Array.exists (fun (t : Model.Task.t) -> t.id = tid) tasks) then
    bad_invocation "%s: the scenario has no task %d" flag tid

(* ------------------------------------------------------------------ *)
(* --preset: one catalog of named scenarios *)

let catalog = Workload.Scenario.catalog

let scenario_names =
  List.map (fun (e : Workload.Scenario.entry) -> e.name) catalog

let find_scenario name =
  List.find_opt (fun (e : Workload.Scenario.entry) -> e.name = name) catalog

(* [runs]: the subcommand runs the kernel on the scenario's programs,
   so it refuses a static-only scenario. *)
let scenario_conv ~runs =
  let known =
    vocab ~what:"scenario" scenario_names find_scenario (fun e -> e.name)
  in
  let parse s =
    match Arg.conv_parser known s with
    | Ok { static_only = Some why; _ } when runs ->
      Error (`Msg (Printf.sprintf "scenario %S is static-only: %s" s why))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer known)

let preset_info doc =
  Arg.info [ "preset" ] ~docv:"NAME"
    ~doc:(Printf.sprintf "%s. Scenarios: %s." doc (one_of scenario_names))

(* --preset with a default scenario, or (preset_opt) without one *)
let preset ?(runs = false) ~doc default =
  Arg.(
    value
    & opt (scenario_conv ~runs) (Option.get (find_scenario default))
    & preset_info doc)

let preset_opt ~doc =
  Arg.(value & opt (some (scenario_conv ~runs:false)) None & preset_info doc)

let random_n =
  Arg.(
    value
    & opt (some positive) None
    & info [ "random" ] ~docv:"N" ~doc:"Generate a random N-task workload.")

let seed =
  Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.")

let file =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:
          "Load the task set from a spec file (see \
           lib/workload/spec_file.mli).")

let taskset_of ~preset ~random_n ~file ~seed =
  match (preset, random_n, file) with
  | Some (e : Workload.Scenario.entry), None, None -> (e.build ()).taskset
  | None, Some n, None ->
    Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n ()
  | None, None, Some path -> (
    match Workload.Spec_file.load path with
    | Ok ts -> ts
    | Error msg -> bad_invocation "cannot load task set: %s" msg)
  | None, None, None -> Workload.Presets.table2
  | _ -> bad_invocation "give exactly one of --preset, --random, --file"

(* ------------------------------------------------------------------ *)
(* --format, --json and --out *)

let format_name = function
  | `Text -> "text"
  | `Json -> "json"
  | `Sarif -> "sarif"
  | `Perfetto -> "perfetto"
  | `Csv -> "csv"
  | `Metrics -> "metrics"

(* --format over [formats], the first being the default; [json] adds
   the --json flag, a spelling of --format json that an explicit
   --format overrides. *)
let format ?(json = false) ?(doc = "") formats =
  let pairs = List.map (fun f -> (format_name f, f)) formats in
  let default = List.hd formats in
  let fmt =
    Arg.(
      value
      & opt (some (table ~what:"format" pairs)) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            (Printf.sprintf "Output format: %s (default: %s).%s" (names pairs)
               (format_name default) doc))
  in
  if not json then Term.(const (Option.value ~default) $ fmt)
  else
    let flag =
      Arg.(value & flag & info [ "json" ] ~doc:"Same as $(b,--format json).")
    in
    let pick f json =
      match f with Some f -> f | None -> if json then `Json else default
    in
    Term.(const pick $ fmt $ flag)

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"PATH"
        ~doc:"Write the output to a file instead of stdout.")

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

(* Print [output], or write it to the --out file and say so. *)
let emit ~out ~format output =
  match out with
  | None -> print_string output
  | Some path ->
    write_file path output;
    Printf.printf "%s output written to %s\n" (format_name format) path

(* Print a report in the chosen --format, or write it to the --out file
   of a subcommand that has one; exit 1 on its failed verdict. *)
let print_report ~out ~format (doc : Util.Doc.t) =
  emit ~out ~format
    (match format with
    | `Text -> doc.text ()
    | `Json -> doc.json ()
    | `Sarif -> doc.sarif ());
  if doc.failed then exit 1

(* analyze and lint, on the --preset scenario or every shipped one: a
   report per scenario, or one SARIF log over all of them with each
   result located in its scenario; failed on any error.  [report]
   returns a scenario's diagnostics, its text and its JSON line. *)
let report_scenarios ~tool ~format preset report =
  let scenarios =
    match preset with
    | None -> Workload.Scenario.all ()
    | Some (e : Workload.Scenario.entry) -> [ e.build () ]
  in
  let reports =
    List.map (fun (s : Workload.Scenario.t) -> (s.name, report s)) scenarios
  in
  let each f () = String.concat "" (List.map f reports) in
  print_report ~out:None ~format
    {
      Util.Doc.text =
        each (fun (name, (_, text, _)) ->
            Printf.sprintf "==== %s ====\n%s" name (text ()));
      json = each (fun (_, (_, _, json)) -> json () ^ "\n");
      sarif =
        (fun () ->
          Lint.Sarif.render ~tool_name:tool
            (List.concat_map
               (fun (name, (diags, _, _)) -> Lint.Sarif.in_scenario name diags)
               reports)
          ^ "\n");
      failed =
        List.exists (fun (_, (diags, _, _)) -> Lint.Diag.errors diags > 0)
          reports;
    }

(* ------------------------------------------------------------------ *)
(* run length and observability knobs *)

let horizon_ms default =
  Arg.(
    value & opt positive default
    & info [ "horizon-ms" ] ~docv:"MS"
        ~doc:"Simulation horizon in milliseconds.")

let ring_bytes default =
  Arg.(
    value & opt int default
    & info [ "ring-bytes" ] ~docv:"N"
        ~doc:
          "Flight-recorder ring size in modeled bytes (48 per event slot); \
           bounded by the paper's 128 KB memory envelope.")

(* the recorder freezes at the first detected fault *)
let fault_triggers =
  Obs.Flightrec.
    [ On_miss; On_overrun; On_kill; On_oom; On_quota; On_net_timeout ]

(* Shared by inject and trace: a ring must hold at least one slot and
   stay inside the paper's total-memory envelope (a recorder bigger
   than the whole kernel budget defeats the point of bounded
   recording). *)
let validated_ring_bytes bytes =
  if bytes < Obs.Flightrec.slot_bytes then
    bad_invocation "--ring-bytes %d is smaller than one %d-byte slot" bytes
      Obs.Flightrec.slot_bytes;
  let _, envelope_hi = Emeralds.Footprint.envelope in
  if bytes > envelope_hi then
    bad_invocation "--ring-bytes %d exceeds the %d-byte memory envelope" bytes
      envelope_hi;
  bytes

(* --categories: the probe categories the observability subscribers
   take, in any case *)
let categories =
  let names = List.map Obs.Probe.category_name Obs.Probe.all_categories in
  let category =
    vocab ~what:"category" names
      (fun s -> Obs.Probe.category_of_name (String.lowercase_ascii s))
      Obs.Probe.category_name
  in
  Arg.(
    value
    & opt (comma_list category) Obs.Probe.all_categories
    & info [ "categories" ] ~docv:"LIST"
        ~doc:
          (Printf.sprintf
             "Comma-separated probe categories the recorder and exporters \
              subscribe to (%s); default all.  Filters the observability \
              subscribers only — the kernel's own trace and statistics are \
              unaffected."
             (one_of names)))
