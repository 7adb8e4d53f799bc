let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let pairs ~keys words =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | word :: rest -> (
      match String.index_opt word '=' with
      | None -> fail "malformed pair %S: expected key=value" word
      | Some i ->
        let key = String.trim (String.sub word 0 i)
        and v = String.sub word (i + 1) (String.length word - i - 1) in
        if not (List.mem key keys) then
          fail "unknown key %S (expected one of: %s)" key
            (String.concat ", " keys)
        else if List.mem_assoc key acc then fail "repeated key %S" key
        else go ((key, String.trim v) :: acc) rest)
  in
  go [] words

let bounded show ~least ~most key n =
  if n < least then
    fail "%s must be at least %s (got %s)" key (show least) (show n)
  else if n > most then
    fail "%s must be at most %s (got %s)" key (show most) (show n)
  else Ok n

let int ?(least = min_int) ?(most = max_int) key v =
  let* n =
    Option.to_result
      ~none:(Printf.sprintf "%s=%s is not an integer" key v)
      (int_of_string_opt v)
  in
  bounded string_of_int ~least ~most key n

let dur ?(least = min_int) ?(most = max_int) key v =
  let* n =
    match Time.of_string v with
    | Ok n -> Ok n
    | Error `Syntax -> fail "%s=%s is not a duration" key v
    | Error `Range ->
      fail
        "%s=%s is out of range: its nanoseconds do not fit in an int (max %d)"
        key v max_int
  in
  bounded Time.to_string ~least ~most key n
