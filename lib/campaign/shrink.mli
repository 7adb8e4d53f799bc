(** Greedy shrinking of falsifying scenarios: delete whole tasks, then
    individual segments, keeping a deletion whenever the same oracle
    still fires and the scenario stays valid.  Restart-on-success to a
    fixpoint, bounded by 150 oracle re-evaluations. *)

type outcome = {
  spec : Workload.Generator.spec;  (** the shrunk spec *)
  evals : int;
  tasks_before : int;
  tasks_after : int;
  segs_before : int;
  segs_after : int;
}

val seg_count : Workload.Generator.spec -> int

val run :
  oracle:Oracle.key ->
  ablation:Oracle.ablation ->
  index:int ->
  Workload.Generator.spec ->
  outcome
(** The original spec is returned unchanged when no deletion
    reproduces the failure. *)
