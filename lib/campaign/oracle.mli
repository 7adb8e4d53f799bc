(** The campaign's oracle-domination lattice.

    Each oracle is a dominance claim between two independent layers of
    the repo: a static bound must dominate every dynamic observation,
    and independent dynamic engines must agree with each other.  A
    scenario on which a claim fails is a {e falsification} — evidence
    that one of the layers (analysis, kernel, checker, or the
    generator's validity argument) is wrong. *)

type key =
  | Validity  (** generated scenarios pass lint and absint with admissible U *)
  | Rta_sim  (** RTA-feasible tasks never miss in simulation *)
  | Demand  (** absint exec intervals >= observed per-job execution *)
  | Mem
      (** absint peak-live block bounds >= observed per-(task, pool)
          high-water marks, and the alloc-discipline lint's leak verdict
          agrees with the simulated kernel's leak observations *)
  | Ident  (** enforcement at declared budgets is trace-bit-identical *)
  | Mc_props  (** deadlock / PI / invariant / tear properties hold *)
  | Rta_mc  (** RTA bounds >= model-checked worst-case responses *)
  | Blame
      (** online per-job blame attribution: components (exec,
          interference, blocking, overhead, ...) sum exactly to every
          observed response (conservation), and each component is
          dominated by its analytical term — per-rank RTA interference,
          lint-derived blocking, the Table-1 overhead budget at the
          RTA fixpoint *)
  | Crash  (** no oracle evaluation raises *)

val all : key list
(** Every oracle, in evaluation order.  [Crash] is the implicit
    "nothing raised" claim; it is checked whenever any oracle runs. *)

val name : key -> string
val of_string : string -> key option

val parse_list : string -> (key list, string) result
(** Comma-separated oracle names; ["all"] selects {!all}. *)

val description : key -> string

(** Deliberate single-fault weakenings of one layer — a static
    analysis, the enforcement setting, or one of the model checker's
    kernel rules — used by CI to prove the campaign can actually
    detect unsoundness (a campaign that never fires is
    indistinguishable from one that checks nothing). *)
type ablation =
  | No_ablation
  | Rta_blocking  (** drop blocking terms from RTA: bounds too small *)
  | Absint_demand  (** halve the absint demand upper bounds *)
  | Mem_peak  (** halve the absint peak-live upper bounds *)
  | Cfg_loop
      (** interpret loop bodies once instead of [n] times
          ([Absint.Exec.Drop_loop_mult]): demand and peak-live bounds
          under-count loopy programs *)
  | Cfg_join
      (** follow only one branch arm instead of joining both
          ([Absint.Exec.Drop_branch_join]): bounds miss the untaken
          arm's charge *)
  | Blame_bounds
      (** halve every analytical blame bound: empirical interference /
          blocking / overhead components must escape domination *)
  | Ident_budget
      (** enforce half the declared budgets (still notify-only): the
          enforced run records overruns the plain run does not, so Ident
          must see the traces diverge *)
  | Mc_inherit
      (** the model checker's release keeps the holder's inherited rank
          and deadline ({!Mc.Step.Keep_inherited}): Mc's [pi] property
          must see effective priorities leave the inheritance
          fixpoint *)

val ablations : ablation list
val ablation_name : ablation -> string
val ablation_of_string : string -> ablation option

type finding = {
  oracle : key;
  scenario : string;  (** generated scenario name, e.g. ["gen-42-avionics"] *)
  index : int;  (** stream index: [spec_of ~index] reproduces it *)
  task : int option;
  message : string;
}
