(** DSA-lite: field-sensitive unification points-to analysis, the one
    points-to engine every MiniC pass ({!Dangling}, {!Escape},
    {!Pool_transform}, {!Poolify}) runs on.

    Unification over a finite node graph with allocation-site-keyed heap
    nodes (positional site numbering shared with
    {!Ast.iter_malloc_sites}), where object nodes keep one points-to
    edge {e per field name}.  [p->a] and [p->b] therefore land in
    distinct classes unless the program itself aliases them, so freeing
    one field's object does not poison the other in {!Dangling}, and
    each field's objects get their own pool.  Class ids are dense, from
    0 to [class_count t - 1].

    Call sites unify actuals with the callee's formals and the call
    result with the callee's return node — the callee's summary graph
    is inlined into the one global graph, context-insensitively.  This
    is deliberate: {!Dangling}'s interprocedural effect summaries
    (may-free sets, entry states) are indexed by global class id, and
    per-call-site cloning would break the callee-class/caller-class
    correspondence those summaries need to stay sound.

    Freezing assigns deterministic class ids (sites in program order,
    then variables and returns by name, then a breadth-first edge
    closure), so repeated runs over the same program produce identical
    partitions — the pool-map determinism gate depends on this. *)

type class_id = int

type t
(** Frozen analysis result. *)

val analyze : Ast.program -> t
(** Build and freeze the points-to partition.  The program should
    already typecheck; behaviour on ill-typed programs is unspecified
    (no exception guarantees). *)

val heap_classes : t -> class_id list
(** Classes containing at least one allocation site, sorted. *)

val class_count : t -> int

val site_class : t -> int -> class_id
(** Class allocated into by the [n]-th malloc site in program order
    (the {!Ast.iter_malloc_sites} numbering).
    @raise Invalid_argument on unknown sites. *)

val var_class : t -> fname:string -> string -> class_id option
(** Class of variable [name] in function [fname] (falls back to the
    global scope). *)

val ret_class : t -> string -> class_id option

val pointee : t -> class_id -> class_id option
(** Class an element of this class points to, if any. *)

val succ : t -> class_id -> class_id list
(** All outgoing edges: pointee (if any) then field targets in
    field-name order. *)

val struct_hint : t -> class_id -> string option
(** One struct name allocated into the class ([poolinit] element-size
    hints and diagnostics). *)

val struct_names : t -> class_id -> string list
(** Every struct name allocated into the class, sorted: a singleton
    means the class is type-homogeneous (the paper's type-safe-pool
    condition). *)

val expr_pointee_class : t -> fname:string -> Ast.expr -> class_id option
(** Class of the {e object} an expression points to: the pointee of the
    class of the pointer value it evaluates to ([Var] / [Field] /
    [Call] chains).  [None] for literals and fresh [Malloc] results,
    which consumers resolve positionally through the site numbering. *)
