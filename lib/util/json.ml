type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_seq buf op cl add xs =
  Buffer.add_char buf op;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; add x) xs;
  Buffer.add_char buf cl

let rec add buf = function
  | Fixed (d, x) when Float.is_finite x -> Printf.bprintf buf "%.*f" d x
  | Null | Fixed _ -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | String s -> add_string buf s
  | List vs -> add_seq buf '[' ']' (add buf) vs
  | Obj ms ->
    add_seq buf '{' '}'
      (fun (k, v) -> add_string buf k; Buffer.add_char buf ':'; add buf v)
      ms

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

exception Fail of int * string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let eat c = peek () = Some c && (incr pos; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () = if eat ' ' || eat '\t' || eat '\n' || eat '\r' then ws () in
  let digits () =
    let start = !pos in
    while !pos < n && '0' <= s.[!pos] && s.[!pos] <= '9' do incr pos done;
    if !pos = start then fail "expected a digit";
    !pos - start
  in
  let number start =
    ignore (eat '-');
    if not (eat '0') then ignore (digits ());
    let decimals = if eat '.' then digits () else 0 in
    let exponent = eat 'e' || eat 'E' in
    if exponent then (ignore (eat '+' || eat '-'); ignore (digits ()));
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i when decimals = 0 && not exponent -> Int i
    | _ -> Fixed (decimals, float_of_string text)
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = String.contains "0123456789abcdefABCDEF" in
    if h = "" || not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let code_point hi =
    if hi < 0xD800 || hi > 0xDFFF then hi
    else if hi > 0xDBFF || not (eat '\\' && eat 'u') then
      fail "unpaired surrogate"
    else
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  in
  let escapes = "\"\\/bfnrt" in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let add c = incr pos; Buffer.add_char buf c in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some c when c < ' ' -> fail "control byte in string"
      | Some '\\' -> incr pos; escape (); go ()
      | Some c -> add c; go ()
    and escape () =
      match peek () with
      | Some c when String.contains escapes c ->
        add "\"\\/\b\012\n\r\t".[String.index escapes c]
      | Some 'u' ->
        incr pos;
        Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point (hex4 ())))
      | _ -> fail "bad escape"
    in
    go ();
    Buffer.contents buf
  in
  let word w v =
    let m = String.length w in
    if !pos + m <= n && String.sub s !pos m = w then (pos := !pos + m; v)
    else fail "expected a value"
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' -> incr pos; Obj (members '}' member)
    | Some '[' -> incr pos; List (members ']' value)
    | Some '"' -> String (string ())
    | Some ('-' | '0' .. '9') -> number !pos
    | Some 't' -> word "true" (Bool true)
    | Some 'f' -> word "false" (Bool false)
    | Some 'n' -> word "null" Null
    | _ -> fail "expected a value"
  and member () =
    ws ();
    let k = string () in
    ws (); expect ':'; (k, value ())
  and members : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if eat ',' then go acc else (expect close; List.rev acc)
      in
      go []
  in
  try
    let v = value () in
    ws ();
    if !pos < n then fail "trailing characters" else Ok v
  with Fail (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)
