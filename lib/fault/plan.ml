(* The fault-plan DSL: variants, one table row per kind, and the
   parser, renderer and JSON derived from the table.

   The syntax is deliberately flat (kind:k=v,k=v;...) so plans travel
   well on a command line and in CI configuration; every value is an
   integer or a suffixed duration, read by [Model.Kv]. *)

type fault =
  | Wcet_scale of { tid : int; pct : int; from_job : int }
  | Wcet_add of { tid : int; extra : Model.Time.t; from_job : int }
  | Release_jitter of { tid : int; amplitude : Model.Time.t }
  | Irq_storm of {
      irq : int; at : Model.Time.t; count : int; spacing : Model.Time.t }
  | Irq_drop of { irq : int; one_in : int }
  | Lost_signal of { wq : int; one_in : int }
  | Sporadic_burst of {
      tid : int; at : Model.Time.t; count : int; spacing : Model.Time.t }
  (* fabric faults — pure data here; [lib/fabric] interprets them, and
     the single-node injector refuses them ([Inject.check_plan]) *)
  | Frame_drop of { one_in : int }
  | Frame_corrupt of { one_in : int }
  | Node_crash of { node : int; at : Model.Time.t }
  | Node_restart of { node : int; at : Model.Time.t }
  | Link_partition of {
      a : int; b : int; from_ : Model.Time.t; until : Model.Time.t }

type t = fault list

let empty = []

(* ------------------------------------------------------------------ *)
(* The table: one row per kind *)

type family = Kernel | Fabric

(* A field's value is an int either way; a duration reads and prints
   as one.  A field without a default is required. *)
type field = {
  key : string; dur : bool; least : int; most : int; default : int option }

let int ?(least = min_int) ?default key =
  { key; dur = false; least; most = max_int; default }

let dur ?(least = 0) ?(most = max_int) key =
  { key; dur = true; least; most; default = None }

(* [make] takes the values in field order; [values] gives them back
   for the row's own constructor *)
type row = {
  name : string;
  family : family;
  fields : field list;
  make : int array -> fault;
  values : fault -> int list option;
}

let table =
  [
    { name = "wcet-scale"; family = Kernel;
      fields =
        [ int "tid"; int ~least:0 "pct"; int ~least:1 ~default:1 "from" ];
      make = (fun v ->
        Wcet_scale { tid = v.(0); pct = v.(1); from_job = v.(2) });
      values = (function
        | Wcet_scale f -> Some [ f.tid; f.pct; f.from_job ] | _ -> None) };
    { name = "wcet-add"; family = Kernel;
      fields = [ int "tid"; dur "extra"; int ~least:1 ~default:1 "from" ];
      make = (fun v ->
        Wcet_add { tid = v.(0); extra = v.(1); from_job = v.(2) });
      values = (function
        | Wcet_add f -> Some [ f.tid; f.extra; f.from_job ] | _ -> None) };
    (* a wider amplitude would wrap the span of the draw, 2 amp + 1 *)
    { name = "jitter"; family = Kernel;
      fields = [ int "tid"; dur ~least:1 ~most:(max_int / 2) "amp" ];
      make = (fun v -> Release_jitter { tid = v.(0); amplitude = v.(1) });
      values = (function
        | Release_jitter f -> Some [ f.tid; f.amplitude ] | _ -> None) };
    { name = "irq-storm"; family = Kernel;
      fields = [ int "irq"; dur "at"; int ~least:1 "count"; dur "spacing" ];
      make = (fun v ->
        Irq_storm { irq = v.(0); at = v.(1); count = v.(2); spacing = v.(3) });
      values = (function
        | Irq_storm f -> Some [ f.irq; f.at; f.count; f.spacing ]
        | _ -> None) };
    { name = "irq-drop"; family = Kernel;
      fields = [ int "irq"; int ~least:2 "one-in" ];
      make = (fun v -> Irq_drop { irq = v.(0); one_in = v.(1) });
      values = (function Irq_drop f -> Some [ f.irq; f.one_in ] | _ -> None) };
    { name = "lost-signal"; family = Kernel;
      fields = [ int "wq"; int ~least:2 "one-in" ];
      make = (fun v -> Lost_signal { wq = v.(0); one_in = v.(1) });
      values = (function
        | Lost_signal f -> Some [ f.wq; f.one_in ] | _ -> None) };
    { name = "burst"; family = Kernel;
      fields = [ int "tid"; dur "at"; int ~least:1 "count"; dur "spacing" ];
      make = (fun v ->
        Sporadic_burst
          { tid = v.(0); at = v.(1); count = v.(2); spacing = v.(3) });
      values = (function
        | Sporadic_burst f -> Some [ f.tid; f.at; f.count; f.spacing ]
        | _ -> None) };
    { name = "frame-drop"; family = Fabric;
      fields = [ int ~least:2 "one-in" ];
      make = (fun v -> Frame_drop { one_in = v.(0) });
      values = (function Frame_drop f -> Some [ f.one_in ] | _ -> None) };
    { name = "frame-corrupt"; family = Fabric;
      fields = [ int ~least:2 "one-in" ];
      make = (fun v -> Frame_corrupt { one_in = v.(0) });
      values = (function Frame_corrupt f -> Some [ f.one_in ] | _ -> None) };
    { name = "node-crash"; family = Fabric;
      fields = [ int ~least:0 "node"; dur "at" ];
      make = (fun v -> Node_crash { node = v.(0); at = v.(1) });
      values = (function Node_crash f -> Some [ f.node; f.at ] | _ -> None) };
    { name = "node-restart"; family = Fabric;
      fields = [ int ~least:0 "node"; dur "at" ];
      make = (fun v -> Node_restart { node = v.(0); at = v.(1) });
      values = (function Node_restart f -> Some [ f.node; f.at ] | _ -> None) };
    { name = "link-partition"; family = Fabric;
      fields = [ int ~least:0 "a"; int ~least:0 "b"; dur "from"; dur "until" ];
      make = (fun v ->
        Link_partition { a = v.(0); b = v.(1); from_ = v.(2); until = v.(3) });
      values = (function
        | Link_partition f -> Some [ f.a; f.b; f.from_; f.until ]
        | _ -> None) };
  ]

(* a fault's row, with each field's value *)
let row_of f =
  Option.get
    (List.find_map
       (fun r ->
         Option.map (fun v -> (r, List.combine r.fields v)) (r.values f))
       table)

let family f = (fst (row_of f)).family

(* ------------------------------------------------------------------ *)
(* Parsing *)

let ( let* ) = Result.bind

let rec all = function
  | [] -> Ok []
  | r :: rest ->
    let* v = r in
    let* vs = all rest in
    Ok (v :: vs)

(* the checks that span two fields *)
let across = function
  | Link_partition { a; b; _ } when a = b -> Error "a and b must differ"
  | Link_partition { from_; until; _ } when until < from_ ->
    Error "until must be >= from"
  | f -> Ok f

let parse_clause clause =
  let* row, body =
    match String.index_opt clause ':' with
    | None -> Error "expected kind:key=value,..."
    | Some i -> (
      let name = String.sub clause 0 i in
      match List.find_opt (fun r -> r.name = name) table with
      | None -> Error (Printf.sprintf "unknown fault kind %S" name)
      | Some r ->
        Ok (r, String.sub clause (i + 1) (String.length clause - i - 1)))
  in
  let* kv =
    Model.Kv.pairs
      ~keys:(List.map (fun f -> f.key) row.fields)
      (String.split_on_char ',' body)
  in
  let value f =
    match (List.assoc_opt f.key kv, f.default) with
    | Some v, _ ->
      (if f.dur then Model.Kv.dur else Model.Kv.int)
        ~least:f.least ~most:f.most f.key v
    | None, Some d -> Ok d
    | None, None -> Error (Printf.sprintf "missing %s=" f.key)
  in
  let* values = all (List.map value row.fields) in
  across (row.make (Array.of_list values))

let parse s =
  String.split_on_char ';' s |> List.map String.trim
  |> List.filter (fun c -> c <> "")
  |> List.map (fun c ->
         Result.map_error (Printf.sprintf "clause %S: %s" c) (parse_clause c))
  |> all

(* ------------------------------------------------------------------ *)
(* Rendering *)

let show f n = if f.dur then Model.Time.to_string n else string_of_int n

(* the concrete syntax leaves out a default *)
let render_fault f =
  let row, fs = row_of f in
  row.name ^ ":"
  ^ String.concat ","
      (List.filter_map
         (fun (f, n) ->
           if f.default = Some n then None else Some (f.key ^ "=" ^ show f n))
         fs)

let render t = String.concat ";" (List.map render_fault t)

let refuse_first why plan =
  match List.find_map (fun f -> Option.map (fun w -> (f, w)) (why f)) plan with
  | None -> Ok ()
  | Some (f, w) -> Error (Printf.sprintf "clause %S: %s" (render [ f ]) w)

(* JSON keys use '_' for '-' and carry durations as [_ns] *)
let json_fault f =
  let row, fs = row_of f in
  let key f =
    String.map (fun c -> if c = '-' then '_' else c) f.key
    ^ if f.dur then "_ns" else ""
  in
  Util.Json.(
    Obj
      (("kind", String row.name) :: List.map (fun (f, n) -> (key f, Int n)) fs))

let to_json t = Util.Json.List (List.map json_fault t)
