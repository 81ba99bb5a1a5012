(** The Automatic Pool Allocation transform (Lattner & Adve, PLDI'05, as
    used by the paper), over the field-sensitive {!Dsa} partition that
    APA itself is built on:

    - every heap points-to class becomes a pool;
    - the pool is created ([Pool_init]) and destroyed ([Pool_destroy]) in
      the outermost function the class does not escape — or in [main]
      for classes reachable from globals (the long-lived pools of §3.4);
    - [malloc]/[free] become [Pool_malloc]/[Pool_free] against the right
      descriptor;
    - functions through which a descriptor must flow gain extra pool
      parameters, and every call site passes them. *)

type pool_desc = {
  class_id : Dsa.class_id;
  pool_var : string;           (** descriptor variable name, e.g. [__pool3] *)
  owner : string;              (** function holding poolinit/pooldestroy *)
  struct_name : string option; (** element-type hint *)
  global : bool;               (** owned by [main] because it escapes to
                                   globals or no bounded owner exists *)
}

type summary = {
  pools : pool_desc list;
  sites_rewritten : int;
  frees_rewritten : int;
}

exception Transform_error of string

val transform : Ast.program -> Ast.program * summary
(** The input must typecheck and contain a [main] function.  The output
    program typechecks and has the same observable behaviour, with every
    allocation routed through a pool. *)

val plan : Dsa.t -> Ast.program -> (Dsa.class_id * string * bool) list
(** Owner selection only, over a partition computed on this exact
    program: for every heap class, [(class, owner function, global?)] —
    [global] meaning the class is reachable from globals (or has no
    bounded owner) and must live in a [main]-owned, effectively
    undestroyable pool.  Requires a [main] function. *)

val callee_names : Ast.func -> string list
(** Direct callees of a function, sorted — the call graph edge list
    used for owner placement (exported for [Minic.Poolify]'s
    escape-depth metric). *)

val pool_var_name : Dsa.class_id -> string
