(** Minimal SARIF 2.1.0 emission.

    A log of one or more runs, each with its own tool driver, a
    deduplicated rule table and a flat result list — enough for CI
    services and editors that ingest the static-analysis interchange
    format.  Shared by the lint report ([emeralds_cli lint --format
    sarif]), the model checker ([emeralds_cli check --format sarif])
    and the soundness campaign, which aggregates several oracles as
    separate runs of one log through {!render_log}. *)

type level = Error | Warning | Note

type result = {
  rule_id : string;  (** stable check identifier, e.g. ["deadlock"] *)
  level : level;
  message : string;
  logical : string option;
      (** logical location, e.g. ["task 3, pc 2"] — these programs have
          no source files to point into *)
}

val of_diags : Diag.t list -> result list
(** Lint diagnostics as SARIF results ([Info] maps to [Note]). *)

val in_scenario : string -> Diag.t list -> result list
(** {!of_diags} located in the named scenario: its name leads each
    logical location, so one log can carry several scenarios. *)

type run = { tool_name : string; results : result list }
(** One SARIF run: a tool driver (version 0.1) plus its results. *)

val run : tool_name:string -> result list -> run

val render_log : run list -> string
(** A complete SARIF 2.1.0 log aggregating several tool runs — the
    multi-run shape the campaign uses to report each oracle (lint,
    analyze, check, the differential lattice) as its own run. *)

val render : tool_name:string -> result list -> string
(** A complete single-run SARIF 2.1.0 log document; byte-identical to
    [render_log [run ~tool_name results]]. *)
