type key =
  | Validity
  | Rta_sim
  | Demand
  | Mem
  | Ident
  | Mc_props
  | Rta_mc
  | Blame
  | Crash

let all =
  [ Validity; Rta_sim; Demand; Mem; Ident; Mc_props; Rta_mc; Blame; Crash ]

let name = function
  | Validity -> "validity"
  | Rta_sim -> "rta-sim"
  | Demand -> "demand"
  | Mem -> "mem"
  | Ident -> "ident"
  | Mc_props -> "mc"
  | Rta_mc -> "rta-mc"
  | Blame -> "blame"
  | Crash -> "crash"

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun k -> name k = s) all

let parse_list spec =
  match String.lowercase_ascii (String.trim spec) with
  | "all" -> Ok all
  | _ ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest -> (
        match of_string s with
        | Some k -> go (k :: acc) rest
        | None -> Error (Printf.sprintf "unknown oracle %S" (String.trim s)))
    in
    go [] (String.split_on_char ',' spec)

let description = function
  | Validity ->
    "generated scenarios are well-formed: lint clean, absint clean, \
     admissible utilization"
  | Rta_sim -> "RTA-feasible tasks never miss a deadline in simulation"
  | Demand -> "absint demand intervals dominate observed job execution"
  | Mem ->
    "absint peak-live block bounds dominate observed high-water marks and \
     the alloc-discipline lint agrees with simulated leaks"
  | Ident ->
    "enforcement with declared budgets is bit-identical to an unenforced run"
  | Mc_props ->
    "model checker finds no deadlock / PI / invariant / tear violation"
  | Rta_mc -> "RTA bounds dominate model-checked worst-case responses"
  | Blame ->
    "per-job blame components sum exactly to each observed response and \
     every empirical component stays within its analytical term (RTA \
     interference, lint blocking, overhead budget)"
  | Crash -> "no oracle run raises (kernel invariants hold)"

type ablation =
  | No_ablation
  | Rta_blocking
  | Absint_demand
  | Mem_peak
  | Cfg_loop
  | Cfg_join
  | Blame_bounds
  | Ident_budget
  | Mc_inherit

let ablations =
  [
    No_ablation; Rta_blocking; Absint_demand; Mem_peak; Cfg_loop; Cfg_join;
    Blame_bounds; Ident_budget; Mc_inherit;
  ]

let ablation_name = function
  | No_ablation -> "none"
  | Rta_blocking -> "rta-blocking"
  | Absint_demand -> "absint-demand"
  | Mem_peak -> "mem"
  | Cfg_loop -> "cfg-loop"
  | Cfg_join -> "cfg-join"
  | Blame_bounds -> "blame"
  | Ident_budget -> "ident"
  | Mc_inherit -> "mc"

let ablation_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun a -> ablation_name a = s) ablations

type finding = {
  oracle : key;
  scenario : string;
  index : int;
  task : int option;
  message : string;
}
