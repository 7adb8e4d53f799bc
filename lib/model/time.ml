type t = int

let zero = 0
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let of_us_f x = int_of_float (Float.round (x *. 1_000.0))
let to_us_f t = float_of_int t /. 1_000.0
let to_ms_f t = float_of_int t /. 1_000_000.0
let add = ( + )
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
