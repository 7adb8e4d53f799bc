type t = int

let zero = 0
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let of_us_f x = int_of_float (Float.round (x *. 1_000.0))

let of_string s =
  let body, scale =
    List.find_map
      (fun (suffix, scale) ->
        if String.ends_with ~suffix s then
          Some (String.sub s 0 (String.length s - String.length suffix), scale)
        else None)
      [ ("ns", 1); ("us", 1_000); ("ms", 1_000_000); ("s", 1_000_000_000) ]
    |> Option.value ~default:(s, 1)
  in
  match (int_of_string_opt body, float_of_string_opt body) with
  | Some v, _ when v > max_int / scale || v < min_int / scale -> Error `Range
  | Some v, _ -> Ok (v * scale)
  | None, Some f when not (Float.is_nan f) ->
    (* a decimal rounds to the nanosecond; 2^62 is past [max_int] *)
    let ns = Float.round (f *. float_of_int scale) in
    if Float.abs ns < 0x1p62 then Ok (int_of_float ns) else Error `Range
  | None, _ -> Error `Syntax

let to_string ns =
  if ns <> 0 && ns mod 1_000_000 = 0 then Printf.sprintf "%dms" (ns / 1_000_000)
  else if ns <> 0 && ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
  else Printf.sprintf "%dns" ns

let to_us_f t = float_of_int t /. 1_000.0
let to_ms_f t = float_of_int t /. 1_000_000.0
let add = ( + )
let add_sat a b = if a > max_int - b then max_int else a + b
let sub = ( - )
let mul t k = t * k
let min = Int.min
let max = Int.max

let pp ppf t =
  let a = abs t in
  if a < 1_000 then Format.fprintf ppf "%dns" t
  else if a < 1_000_000 then Format.fprintf ppf "%.2fus" (to_us_f t)
  else if a < 1_000_000_000 then Format.fprintf ppf "%.3fms" (to_ms_f t)
  else Format.fprintf ppf "%.3fs" (float_of_int t /. 1e9)
