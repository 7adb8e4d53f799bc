(* The fault-plan DSL: variants, concrete syntax, canonical renderer.

   The syntax is deliberately flat (kind:k=v,k=v;...) so plans travel
   well on a command line and in CI configuration; the parser is a
   hand-rolled splitter rather than a real grammar — every value is an
   integer or a suffixed duration. *)

type fault =
  | Wcet_scale of { tid : int; pct : int; from_job : int }
  | Wcet_add of { tid : int; extra : Model.Time.t; from_job : int }
  | Release_jitter of { tid : int; amplitude : Model.Time.t }
  | Irq_storm of {
      irq : int;
      at : Model.Time.t;
      count : int;
      spacing : Model.Time.t;
    }
  | Irq_drop of { irq : int; one_in : int }
  | Lost_signal of { wq : int; one_in : int }
  | Sporadic_burst of {
      tid : int;
      at : Model.Time.t;
      count : int;
      spacing : Model.Time.t;
    }
  (* fabric faults — pure data here; [lib/fabric] interprets them, and
     the single-node injector refuses them ([Inject.check_plan]) *)
  | Frame_drop of { one_in : int }
  | Frame_corrupt of { one_in : int }
  | Node_crash of { node : int; at : Model.Time.t }
  | Node_restart of { node : int; at : Model.Time.t }
  | Link_partition of {
      a : int;
      b : int;
      from_ : Model.Time.t;
      until : Model.Time.t;
    }

type t = fault list

let empty = []

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse_clause clause =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt clause ':' with
  | None -> fail "clause %S: expected kind:key=value,..." clause
  | Some i ->
    let kind = String.sub clause 0 i in
    let rest = String.sub clause (i + 1) (String.length clause - i - 1) in
    let kvs = String.split_on_char ',' rest in
    let pairs =
      List.filter_map
        (fun kv ->
          match String.index_opt kv '=' with
          | None -> None
          | Some j ->
            Some
              ( String.trim (String.sub kv 0 j),
                String.trim (String.sub kv (j + 1) (String.length kv - j - 1))
              ))
        kvs
    in
    if List.length pairs <> List.length kvs then
      fail "clause %S: malformed key=value pair" clause
    else
      let opt_int_field key ~default =
        match List.assoc_opt key pairs with
        | None -> Ok default
        | Some v -> (
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> fail "clause %S: %s=%s is not an integer" clause key v)
      in
      let int_field key =
        if List.mem_assoc key pairs then opt_int_field key ~default:0
        else fail "clause %S: missing %s=" clause key
      in
      let dur_field key =
        match List.assoc_opt key pairs with
        | None -> fail "clause %S: missing %s=" clause key
        | Some v -> (
          match Model.Time.of_string v with
          | Ok n -> Ok n
          | Error `Syntax ->
            fail "clause %S: %s=%s is not a duration" clause key v
          | Error `Range ->
            fail "clause %S: %s=%s is out of range: its nanoseconds do not \
                  fit in an int (max %d)" clause key v max_int)
      in
      let ( let* ) = Result.bind in
      let* f =
        match kind with
        | "wcet-scale" ->
        let* tid = int_field "tid" in
        let* pct = int_field "pct" in
        let* from_job = opt_int_field "from" ~default:1 in
        Ok (Wcet_scale { tid; pct; from_job })
      | "wcet-add" ->
        let* tid = int_field "tid" in
        let* extra = dur_field "extra" in
        let* from_job = opt_int_field "from" ~default:1 in
        Ok (Wcet_add { tid; extra; from_job })
      | "jitter" ->
        let* tid = int_field "tid" in
        let* amplitude = dur_field "amp" in
        Ok (Release_jitter { tid; amplitude })
      | "irq-storm" ->
        let* irq = int_field "irq" in
        let* at = dur_field "at" in
        let* count = int_field "count" in
        let* spacing = dur_field "spacing" in
        Ok (Irq_storm { irq; at; count; spacing })
      | "irq-drop" ->
        let* irq = int_field "irq" in
        let* one_in = int_field "one-in" in
        Ok (Irq_drop { irq; one_in })
      | "lost-signal" ->
        let* wq = int_field "wq" in
        let* one_in = int_field "one-in" in
        Ok (Lost_signal { wq; one_in })
      | "burst" ->
        let* tid = int_field "tid" in
        let* at = dur_field "at" in
        let* count = int_field "count" in
        let* spacing = dur_field "spacing" in
        Ok (Sporadic_burst { tid; at; count; spacing })
      | "frame-drop" ->
        let* one_in = int_field "one-in" in
        Ok (Frame_drop { one_in })
      | "frame-corrupt" ->
        let* one_in = int_field "one-in" in
        Ok (Frame_corrupt { one_in })
      | "node-crash" ->
        let* node = int_field "node" in
        let* at = dur_field "at" in
        Ok (Node_crash { node; at })
      | "node-restart" ->
        let* node = int_field "node" in
        let* at = dur_field "at" in
        Ok (Node_restart { node; at })
      | "link-partition" ->
        let* a = int_field "a" in
        let* b = int_field "b" in
        let* from_ = dur_field "from" in
        let* until = dur_field "until" in
        Ok (Link_partition { a; b; from_; until })
        | k -> fail "clause %S: unknown fault kind %S" clause k
      in
      (* structural sanity beyond syntax *)
      let bad msg = fail "clause %S: %s" clause msg in
      (match f with
      | Wcet_scale { pct; from_job; _ } ->
        if pct < 0 then bad "pct must be non-negative"
        else if from_job < 1 then bad "from must be >= 1"
        else Ok f
      | Wcet_add { extra; from_job; _ } ->
        if extra < 0 then bad "extra must be non-negative"
        else if from_job < 1 then bad "from must be >= 1"
        else Ok f
      | Release_jitter { amplitude; _ } ->
        if amplitude <= 0 then bad "amp must be positive" else Ok f
      | Irq_storm { count; spacing; at; _ } ->
        if count <= 0 then bad "count must be positive"
        else if spacing < 0 then bad "spacing must be non-negative"
        else if at < 0 then bad "at must be non-negative"
        else Ok f
      | Irq_drop { one_in; _ } | Lost_signal { one_in; _ } ->
        if one_in < 2 then bad "one-in must be >= 2" else Ok f
      | Sporadic_burst { count; spacing; at; _ } ->
        if count <= 0 then bad "count must be positive"
        else if spacing < 0 then bad "spacing must be non-negative"
        else if at < 0 then bad "at must be non-negative"
        else Ok f
      | Frame_drop { one_in } | Frame_corrupt { one_in } ->
        if one_in < 2 then bad "one-in must be >= 2" else Ok f
      | Node_crash { node; at } | Node_restart { node; at } ->
        if node < 0 then bad "node must be non-negative"
        else if at < 0 then bad "at must be non-negative"
        else Ok f
      | Link_partition { a; b; from_; until } ->
        if a < 0 || b < 0 then bad "node ids must be non-negative"
        else if a = b then bad "a and b must differ"
        else if from_ < 0 then bad "from must be non-negative"
        else if until < from_ then bad "until must be >= from"
        else Ok f)

let parse s =
  let clauses =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
      match parse_clause c with
      | Ok f -> go (f :: acc) rest
      | Error _ as e -> e)
  in
  go [] clauses

(* ------------------------------------------------------------------ *)
(* Rendering *)

let dur ns =
  if ns <> 0 && ns mod 1_000_000 = 0 then
    Printf.sprintf "%dms" (ns / 1_000_000)
  else if ns <> 0 && ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
  else Printf.sprintf "%dns" ns

(* Each fault's kind and fields in printing order, shared by the
   concrete syntax and JSON; a [`Dur] field is a duration. *)
let fields = function
  | Wcet_scale { tid; pct; from_job } ->
    ( "wcet-scale",
      [ ("tid", `Int tid); ("pct", `Int pct); ("from", `Int from_job) ] )
  | Wcet_add { tid; extra; from_job } ->
    ( "wcet-add",
      [ ("tid", `Int tid); ("extra", `Dur extra); ("from", `Int from_job) ] )
  | Release_jitter { tid; amplitude } ->
    ("jitter", [ ("tid", `Int tid); ("amp", `Dur amplitude) ])
  | Irq_storm { irq; at; count; spacing } ->
    ( "irq-storm",
      [ ("irq", `Int irq); ("at", `Dur at); ("count", `Int count);
        ("spacing", `Dur spacing) ] )
  | Irq_drop { irq; one_in } ->
    ("irq-drop", [ ("irq", `Int irq); ("one-in", `Int one_in) ])
  | Lost_signal { wq; one_in } ->
    ("lost-signal", [ ("wq", `Int wq); ("one-in", `Int one_in) ])
  | Sporadic_burst { tid; at; count; spacing } ->
    ( "burst",
      [ ("tid", `Int tid); ("at", `Dur at); ("count", `Int count);
        ("spacing", `Dur spacing) ] )
  | Frame_drop { one_in } -> ("frame-drop", [ ("one-in", `Int one_in) ])
  | Frame_corrupt { one_in } -> ("frame-corrupt", [ ("one-in", `Int one_in) ])
  | Node_crash { node; at } ->
    ("node-crash", [ ("node", `Int node); ("at", `Dur at) ])
  | Node_restart { node; at } ->
    ("node-restart", [ ("node", `Int node); ("at", `Dur at) ])
  | Link_partition { a; b; from_; until } ->
    ( "link-partition",
      [ ("a", `Int a); ("b", `Int b); ("from", `Dur from_);
        ("until", `Dur until) ] )

(* the concrete syntax leaves out the default first job, from=1 *)
let render_fault f =
  let kind, fs = fields f in
  let field = function
    | "from", `Int 1 -> None
    | k, `Int n -> Some (Printf.sprintf "%s=%d" k n)
    | k, `Dur ns -> Some (k ^ "=" ^ dur ns)
  in
  kind ^ ":" ^ String.concat "," (List.filter_map field fs)

let render t = String.concat ";" (List.map render_fault t)

let refuse_first why plan =
  match List.find_map (fun f -> Option.map (fun w -> (f, w)) (why f)) plan with
  | None -> Ok ()
  | Some (f, w) -> Error (Printf.sprintf "clause %S: %s" (render [ f ]) w)

(* JSON keys use '_' for '-' and carry durations as [_ns] *)
let json_fault f =
  let kind, fs = fields f in
  let key = String.map (fun c -> if c = '-' then '_' else c) in
  let field = function
    | k, `Int n -> (key k, Util.Json.Int n)
    | k, `Dur ns -> (k ^ "_ns", Util.Json.Int ns)
  in
  Util.Json.(Obj (("kind", String kind) :: List.map field fs))

let to_json t = Util.Json.List (List.map json_fault t)
