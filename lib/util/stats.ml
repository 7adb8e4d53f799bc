type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean xs =
  assert (xs <> []);
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize xs =
  assert (xs <> []);
  let n = List.length xs in
  let m = mean xs in
  let var =
    if n < 2 then 0.0
    else
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. float_of_int (n - 1)
  in
  let mn = List.fold_left min infinity xs in
  let mx = List.fold_left max neg_infinity xs in
  { n; mean = m; stddev = sqrt var; min = mn; max = mx }

let percentile xs p =
  assert (xs <> [] && p >= 0.0 && p <= 1.0);
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (p *. float_of_int n)) in
  a.(Intmath.clamp ~lo:0 ~hi:(n - 1) (rank - 1))

type linear_fit = { intercept : float; slope : float; r2 : float }

let fit_linear pts =
  assert (List.length pts >= 2);
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let denom = (n *. sxx) -. (sx *. sx) in
  assert (abs_float denom > 1e-9);
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  let ybar = sy /. n in
  let ss_tot = List.fold_left (fun a (_, y) -> a +. ((y -. ybar) ** 2.)) 0.0 pts in
  let ss_res =
    List.fold_left
      (fun a (x, y) -> a +. ((y -. intercept -. (slope *. x)) ** 2.))
      0.0 pts
  in
  let r2 = if ss_tot <= 1e-12 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { intercept; slope; r2 }
