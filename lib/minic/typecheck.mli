(** Lightweight type checker for MiniC: struct and field existence,
    variable scoping, call arity, and pointer/integer well-formedness —
    the checks a C front end would have done before the pool transform
    runs. *)

exception Type_error of string

val check : Ast.program -> unit
(** Raises {!Type_error} with a descriptive message. *)
