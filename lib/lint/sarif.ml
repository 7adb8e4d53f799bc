type level = Error | Warning | Note

type result = {
  rule_id : string;
  level : level;
  message : string;
  logical : string option;
}

let level_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let of_diags diags =
  List.map
    (fun (d : Diag.t) ->
      let logical =
        match (d.task, d.pc) with
        | None, _ -> None
        | Some t, None -> Some (Printf.sprintf "task %d" t)
        | Some t, Some pc -> Some (Printf.sprintf "task %d, pc %d" t pc)
      in
      {
        rule_id = d.check;
        level =
          (match d.severity with
          | Diag.Error -> Error
          | Diag.Warning -> Warning
          | Diag.Info -> Note);
        message = d.message;
        logical;
      })
    diags

let in_scenario name diags =
  let locate l = name ^ Option.fold l ~none:"" ~some:(( ^ ) ", ") in
  List.map (fun r -> { r with logical = Some (locate r.logical) }) (of_diags diags)

let result_json r =
  let open Util.Json in
  let location l =
    Obj [ ("logicalLocations", List [ Obj [ ("fullyQualifiedName", l) ] ]) ]
  in
  Obj
    ([ ("ruleId", String r.rule_id); ("level", String (level_label r.level));
       ("message", Obj [ ("text", String r.message) ]) ]
    @ Option.fold r.logical ~none:[] ~some:(fun l ->
          [ ("locations", List [ location (String l) ]) ]))

type run = { tool_name : string; results : result list }

let run ~tool_name results = { tool_name; results }

let run_json r =
  let open Util.Json in
  let rules =
    List.sort_uniq String.compare (List.map (fun x -> x.rule_id) r.results)
    |> List.map (fun id -> Obj [ ("id", String id) ])
  in
  let driver =
    Obj [ ("name", String r.tool_name); ("version", String "0.1");
          ("rules", List rules) ]
  in
  Obj
    [ ("tool", Obj [ ("driver", driver) ]);
      ("results", List (List.map result_json r.results)) ]

let schema =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/\
   sarif-schema-2.1.0.json"

let render_log runs =
  Util.Json.(
    to_string
      (Obj [ ("$schema", String schema); ("version", String "2.1.0");
             ("runs", List (List.map run_json runs)) ]))

let render ~tool_name results = render_log [ run ~tool_name results ]
