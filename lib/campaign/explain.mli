(** The [explain] subcommand's report. *)

val run :
  name:string ->
  sched:Emeralds.Sched.spec ->
  horizon_ms:int ->
  seed:int ->
  task:int option ->
  Workload.Scenario.t ->
  Util.Doc.t
(** One plain run of the scenario (reported as [name]) with
    {!Obs.Blame} on the probe stream: each task's worst job split into
    named causes and, under RM for a task RTA covers, each cause held
    against its {!Eval.blame_terms} bound, then the dominant cause of
    each missing task's worst job; SARIF gives the
    {!Eval.blame_violations} and the misses.  [task] keeps one task id's
    rows.  Failed on any miss, overrun or kill, or any task's
    violation. *)
