(** The [fabric] subcommand's named runs, and the one way to run a
    fabric: a fresh engine and 1 Mbit/s bus, one EDF shard per
    assignment at the m68040 cost model, a fault plan, and the
    scorecard at the horizon.  [Campaign.Eval.run_e2e], the fabric's
    crash-failover sweep, runs its own shards and plan through {!run}. *)

type t = {
  name : string;  (** the CLI's [--preset] spelling *)
  assignments : (int * Model.Task.t list) list;  (** node, tasks *)
  plan : Fault.Plan.t;
  migration : (Model.Time.t * int * int) option;
      (** a planned migration: instant, task id, target node *)
}

val all : t list
(** steady, migrate, crash, crash-storm and partition. *)

val run :
  config:Cluster.config ->
  seed:int ->
  horizon:Model.Time.t ->
  plan:Fault.Plan.t ->
  migration:(Model.Time.t * int * int) option ->
  (int * Model.Task.t list) list ->
  (Cluster.t * Fault.Report.net_score, string) result
(** Build the cluster over the assignments, install the plan, schedule
    the migration, run to [horizon] and score it; [Error] is
    {!Cluster.check_plan}'s, before anything runs. *)
