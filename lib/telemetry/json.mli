(** A minimal JSON value type with a printer and a parser.

    The telemetry exporters hand-roll their JSON so the library carries
    no external dependency; the parser exists chiefly so tests (and
    tools) can check exporter output for well-formedness and read it
    back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  Non-finite floats render as [null]
    (JSON has no representation for them). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering, for humans. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error.  Numbers with
    a fraction or exponent parse as [Float], others as [Int]. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up a field; [None] on missing key or
    non-object. *)
