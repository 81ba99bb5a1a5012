(** Abstract syntax for MiniC, the C-like language the Automatic Pool
    Allocation transform operates on.

    The surface language (see {!Parser}) has structs, pointers, ints,
    functions, [malloc]/[free] and the usual control flow.  The pool
    constructors ([Pool_init] … [Pool_free]) never appear in parsed
    programs; {!Pool_transform} introduces them, exactly as the paper's
    compiler rewrites [malloc]/[free] into [poolalloc]/[poolfree] against
    inserted or inherited pool descriptors.

    Allocation, free and dereference nodes carry a source {!pos} so the
    static analysis ({!Dangling}) and the runtime can talk about the same
    sites: diagnostics print [file:line:col] and the interpreter appends
    ["@line:col"] to allocation-site strings, which is what the per-site
    protection policy in [Runtime.Schemes] keys on. *)

type pos = { line : int; col : int }

(** Position for programmatically built ASTs.  Sites carrying [no_pos]
    are never elided by a protection policy. *)
let no_pos = { line = 0; col = 0 }

let pos_label p =
  if p = no_pos then "?" else Printf.sprintf "%d:%d" p.line p.col

(** Suffix appended to runtime allocation/free site strings; the
    per-site protection policy parses it back out. *)
let pos_suffix p =
  if p = no_pos then "" else Printf.sprintf "@%d:%d" p.line p.col

type typ =
  | Tint
  | Tptr of string  (** pointer to a named struct *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop =
  | Neg
  | Not

type expr =
  | Int of int
  | Null
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Field of expr * string * pos          (** [e->f] *)
  | Malloc of string * pos                (** [malloc(struct s)] *)
  | Malloc_array of string * expr * pos
      (** [malloc(struct s, n)]: n contiguous elements *)
  | Pool_malloc of string * string * pos
      (** [poolalloc(pd, struct s)] — transform output *)
  | Pool_malloc_array of string * string * expr * pos
      (** [poolalloc(pd, struct s, n)] — transform output *)
  | Index of expr * expr * pos
      (** [e[i]]: pointer to the i-th element of an array allocation *)
  | Call of string * expr list

type stmt =
  | Decl of typ * string * expr option
  | Assign of string * expr
  | Store of expr * string * expr * pos   (** [e1->f = e2] *)
  | Free of expr * pos
  | Pool_free of string * expr * pos      (** [poolfree(pd, e)] — transform output *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Print of expr
  | Expr of expr
  | Pool_init of string * string    (** [pool pd = poolinit(struct s)] *)
  | Pool_destroy of string

type func = {
  name : string;
  ret : typ option;                 (** [None] = void *)
  params : (typ * string) list;
  pool_params : string list;        (** extra descriptors, transform output *)
  body : stmt list;
}

type program = {
  structs : (string * (typ * string) list) list;
  globals : (typ * string) list;
  funcs : func list;
}

(** Raised by the struct-layout helpers on malformed programs (unknown
    struct or field).  A typed error so the lint/compile CLIs can turn it
    into a diagnostic instead of crashing on [Invalid_argument]. *)
exception Semantic_error of string

let semantic_error fmt = Printf.ksprintf (fun m -> raise (Semantic_error m)) fmt

let struct_fields program name =
  match List.assoc_opt name program.structs with
  | Some fields -> fields
  | None -> semantic_error "unknown struct %s" name

let struct_size program name = 8 * List.length (struct_fields program name)

let field_index program sname fname =
  let fields = struct_fields program sname in
  let rec go i = function
    | [] -> semantic_error "struct %s has no field %s" sname fname
    | (_, f) :: rest -> if f = fname then i else go (i + 1) rest
  in
  go 0 fields

let find_func program name =
  List.find_opt (fun f -> f.name = name) program.funcs

(** Visit every malloc site in deterministic program order, assigning
    the positional site numbering shared by {!Dsa}, {!Dangling} and
    {!Pool_transform}: functions in program order, statements in order,
    expressions left-to-right (an array site after its count).  [pos] is
    the position the site carries ({!no_pos} for programmatically built
    ASTs). *)
let iter_malloc_sites program visit =
  let counter = ref 0 in
  let site fname struct_name pos =
    let n = !counter in
    incr counter;
    visit ~site:n ~fname ~struct_name ~pos
  in
  let rec expr fname = function
    | Int _ | Null | Var _ -> ()
    | Binop (_, a, c) | Index (a, c, _) ->
      expr fname a;
      expr fname c
    | Unop (_, a) | Field (a, _, _) -> expr fname a
    | Malloc (s, p) | Pool_malloc (_, s, p) -> site fname s p
    | Malloc_array (s, count, p) | Pool_malloc_array (_, s, count, p) ->
      expr fname count;
      site fname s p
    | Call (_, args) -> List.iter (expr fname) args
  in
  let rec stmt fname = function
    | Decl (_, _, init) -> Option.iter (expr fname) init
    | Assign (_, e) | Print e | Expr e | Free (e, _) | Pool_free (_, e, _)
    | Return (Some e) ->
      expr fname e
    | Store (e1, _, e2, _) ->
      expr fname e1;
      expr fname e2
    | If (cond, t, f) ->
      expr fname cond;
      List.iter (stmt fname) t;
      List.iter (stmt fname) f
    | While (cond, body) ->
      expr fname cond;
      List.iter (stmt fname) body
    | Return None | Pool_init _ | Pool_destroy _ -> ()
  in
  List.iter (fun f -> List.iter (stmt f.name) f.body) program.funcs

(** Erase all source positions (to [no_pos]); used by the pretty-printer
    round-trip test, which compares ASTs modulo positions. *)
let rec strip_expr = function
  | (Int _ | Null | Var _) as e -> e
  | Binop (op, a, b) -> Binop (op, strip_expr a, strip_expr b)
  | Unop (op, a) -> Unop (op, strip_expr a)
  | Field (e, f, _) -> Field (strip_expr e, f, no_pos)
  | Malloc (s, _) -> Malloc (s, no_pos)
  | Malloc_array (s, n, _) -> Malloc_array (s, strip_expr n, no_pos)
  | Pool_malloc (pd, s, _) -> Pool_malloc (pd, s, no_pos)
  | Pool_malloc_array (pd, s, n, _) ->
    Pool_malloc_array (pd, s, strip_expr n, no_pos)
  | Index (e, i, _) -> Index (strip_expr e, strip_expr i, no_pos)
  | Call (f, args) -> Call (f, List.map strip_expr args)

let rec strip_stmt = function
  | Decl (t, x, init) -> Decl (t, x, Option.map strip_expr init)
  | Assign (x, e) -> Assign (x, strip_expr e)
  | Store (e1, f, e2, _) -> Store (strip_expr e1, f, strip_expr e2, no_pos)
  | Free (e, _) -> Free (strip_expr e, no_pos)
  | Pool_free (pd, e, _) -> Pool_free (pd, strip_expr e, no_pos)
  | If (c, t, f) ->
    If (strip_expr c, List.map strip_stmt t, List.map strip_stmt f)
  | While (c, body) -> While (strip_expr c, List.map strip_stmt body)
  | Return e -> Return (Option.map strip_expr e)
  | Print e -> Print (strip_expr e)
  | Expr e -> Expr (strip_expr e)
  | (Pool_init _ | Pool_destroy _) as s -> s

let strip_positions program =
  { program with
    funcs =
      List.map
        (fun f -> { f with body = List.map strip_stmt f.body })
        program.funcs }
