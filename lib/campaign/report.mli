(** Campaign reporting: terminal text, JSON, and multi-run SARIF. *)

val render_text : Driver.summary -> string

val to_json : Driver.summary -> string

val to_sarif : Driver.summary -> string
(** A SARIF 2.1.0 log with one run per tool driver (lint, absint, mc,
    campaign); each finding is routed to the tool whose layer its
    falsified claim indicts.  Empty runs are emitted too: they state
    that the corresponding oracles were evaluated and held. *)

val doc : Driver.summary -> Util.Doc.t
(** The [campaign] report: {!render_text}, {!to_json} and {!to_sarif}
    as documents; failed on any falsification. *)
