(** Source rendering of MiniC programs — used to show the before/after of
    the pool transform (the paper's Figures 1 and 2) and in parser
    round-trip tests. *)

val program_to_string : Ast.program -> string
