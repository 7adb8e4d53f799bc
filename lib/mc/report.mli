(** The [check] subcommand's report. *)

val run :
  por:bool ->
  rta:bool ->
  seed:int option ->
  props:Props.t list ->
  bounds:Explorer.bounds ->
  Workload.Scenario.t ->
  Machine.t ->
  Util.Doc.t
(** {!Explorer.check} the machine compiled from the scenario: the
    search's counts, its verdict (a violation as its replayed
    {!Counterexample.render}) and each task's worst response.  [rta]
    turns the reduction off, since merged tie orders can hide the worst
    response, and ends the text with each against lint's declared-WCET
    RTA bound ({!Lint.Blocking_terms.declared_rta}).  Failed on a
    violation. *)
