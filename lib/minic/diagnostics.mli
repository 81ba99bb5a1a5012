(** Human and JSON rendering of {!Dangling} results for `danguard lint`.

    The JSON shape is pinned by golden files under examples/lint/ — keep
    it stable (fields are emitted in a fixed order, findings sorted by
    source position). *)

type t

val make : file:string -> Dangling.result -> t
(** [file] is the label used in diagnostics ([file:line:col]) and the
    JSON document; pass the path the user named. *)

val render : t -> string
(** Human-readable report: one line per May/Must finding, a note per
    malloc site with its class verdict, and a summary line. *)

val to_json : t -> Telemetry.Json.t

val to_sarif : t -> Telemetry.Json.t
(** SARIF 2.1.0 document: one run with driver [danguard-lint] and rules
    [may-uaf] (level warning) / [must-uaf] (level error), one result
    per flagged finding with its physical location.  Safe findings and
    per-site notes are not emitted — SARIF carries actionable results
    only.  Shape pinned by examples/lint/must_uaf.expected.sarif. *)

val exit_code : t -> int
(** [3] when any Must-UAF finding is present, else [0]. *)
