(* DSA-lite: a unification-based, field-SENSITIVE points-to analysis in
   the tradition of Lattner & Adve's Data Structure Analysis — the
   analysis Automatic Pool Allocation is actually built on.

   An object node carries one target edge per field *name* rather than
   a single collapsed field node, so [p->a] and [p->b] stay in distinct
   classes unless the program itself aliases them.  This is what keeps
   "freeing [p->a] poisons [p->b]" false positives out of {!Dangling},
   and what gives each field's objects their own, shorter-lived pool in
   {!Pool_transform}.

   Heap nodes are keyed by allocation site (the shared positional
   numbering of {!Ast.iter_malloc_sites}) and live in one global
   graph, so the allocation-site partition is a single sound global
   partition — exactly what pool assignment needs.  Function graphs are
   built per function over qualified variable nodes ("fn::x") and
   connected at call sites by unifying actuals with formals and the
   call result with the callee's return node: the callee's summary
   graph is inlined into the global graph at its call sites.  We keep
   this call handling context-INsensitive (no per-call-site cloning) on
   purpose: {!Dangling}'s interprocedural effect summaries (may-free
   class sets, entry class states) are indexed by global class id, and
   a cloned callee subgraph would break the callee-class/caller-class
   correspondence those summaries rely on — a callee freeing its
   argument would free a class no caller maps to.  Unification is
   monotone and order-independent, so one bottom-up pass over the
   functions reaches the fixpoint over a finite lattice. *)

type class_id = int

type node = {
  id : int;
  mutable parent : node option;
  mutable pointee : node option;
  mutable fields : (string * node) list; (* one target per field name *)
  mutable sites : int list;
  mutable structs : string list;
}

let rec find n =
  match n.parent with
  | None -> n
  | Some p ->
    let root = find p in
    n.parent <- Some root;
    root

type builder = {
  mutable next_id : int;
  vars : (string, node) Hashtbl.t; (* qualified "fn::x" or "::g" *)
  rets : (string, node) Hashtbl.t;
  site_nodes : (int, node) Hashtbl.t;
}

let fresh b =
  let n =
    {
      id = b.next_id;
      parent = None;
      pointee = None;
      fields = [];
      sites = [];
      structs = [];
    }
  in
  b.next_id <- b.next_id + 1;
  n

let rec unify b a c =
  let a = find a and c = find c in
  if a != c then begin
    c.parent <- Some a;
    a.sites <- List.rev_append c.sites a.sites;
    a.structs <- List.rev_append c.structs a.structs;
    (match (a.pointee, c.pointee) with
     | None, other -> a.pointee <- other
     | Some _, None -> ()
     | Some x, Some y -> unify b x y);
    let cfields = c.fields in
    c.fields <- [];
    List.iter
      (fun (f, t) ->
        (* Recursive unifications may have merged [a] under a new root;
           always consult the current one. *)
        let ra = find a in
        match List.assoc_opt f ra.fields with
        | Some t' -> unify b t' t
        | None -> ra.fields <- (f, t) :: ra.fields)
      cfields
  end

let target b n =
  let n = find n in
  match n.pointee with
  | Some p -> find p
  | None ->
    let p = fresh b in
    n.pointee <- Some p;
    p

let field_node b n f =
  let n = find n in
  match List.assoc_opt f n.fields with
  | Some t -> find t
  | None ->
    let t = fresh b in
    n.fields <- (f, t) :: n.fields;
    t

let qualified fname var = fname ^ "::" ^ var

let var_node b ~fname name =
  match Hashtbl.find_opt b.vars (qualified fname name) with
  | Some n -> n
  | None ->
    (match Hashtbl.find_opt b.vars (qualified "" name) with
     | Some n -> n
     | None ->
       let n = fresh b in
       Hashtbl.replace b.vars (qualified fname name) n;
       n)

let ret_node b fname =
  match Hashtbl.find_opt b.rets fname with
  | Some n -> n
  | None ->
    let n = fresh b in
    Hashtbl.replace b.rets fname n;
    n

let heap_node b ~site ~struct_name =
  let n =
    match Hashtbl.find_opt b.site_nodes site with
    | Some n -> n
    | None ->
      let n = fresh b in
      Hashtbl.replace b.site_nodes site n;
      n
  in
  let r = find n in
  if not (List.mem site r.sites) then r.sites <- site :: r.sites;
  if not (List.mem struct_name r.structs) then
    r.structs <- struct_name :: r.structs;
  r

(* ---- frozen result ---------------------------------------------------- *)

type t = {
  site_classes : (int, class_id) Hashtbl.t;
  var_classes : (string, class_id) Hashtbl.t; (* "fn::x" / "::g" *)
  ret_classes : (string, class_id) Hashtbl.t;
  pointees : (class_id, class_id) Hashtbl.t;
  fields : (class_id * string, class_id) Hashtbl.t;
  field_names : (class_id, string list) Hashtbl.t; (* sorted *)
  hints : (class_id, string) Hashtbl.t;
  struct_lists : (class_id, string list) Hashtbl.t; (* sorted, uniq *)
  heap : class_id list;
  count : int;
}

(* Deterministic class numbering: heap sites in positional order, then
   variables by qualified name, then returns by name, then a
   breadth-first closure over the edges (pointee before fields, fields
   by name) — so two runs over the same program freeze to identical
   tables, which the pool-map determinism gate relies on. *)
let freeze b =
  let class_of_node = Hashtbl.create 64 in
  let counter = ref 0 in
  let pending = Queue.create () in
  let class_of n =
    let root = find n in
    match Hashtbl.find_opt class_of_node root.id with
    | Some c -> c
    | None ->
      let c = !counter in
      incr counter;
      Hashtbl.replace class_of_node root.id c;
      Queue.add root pending;
      c
  in
  let site_classes = Hashtbl.create 64 in
  let hints = Hashtbl.create 16 in
  let struct_lists = Hashtbl.create 16 in
  let heap = ref [] in
  let nsites = Hashtbl.fold (fun s _ acc -> max acc (s + 1)) b.site_nodes 0 in
  for site = 0 to nsites - 1 do
    match Hashtbl.find_opt b.site_nodes site with
    | None -> ()
    | Some n ->
      let c = class_of n in
      Hashtbl.replace site_classes site c;
      if not (List.mem c !heap) then heap := c :: !heap;
      let structs = List.sort_uniq compare (find n).structs in
      Hashtbl.replace struct_lists c structs;
      (match structs with
       | s :: _ -> Hashtbl.replace hints c s
       | [] -> ())
  done;
  let var_classes = Hashtbl.create 64 in
  Hashtbl.fold (fun q n acc -> (q, n) :: acc) b.vars []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (q, n) -> Hashtbl.replace var_classes q (class_of n));
  let ret_classes = Hashtbl.create 16 in
  Hashtbl.fold (fun f n acc -> (f, n) :: acc) b.rets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (f, n) -> Hashtbl.replace ret_classes f (class_of n));
  let pointees = Hashtbl.create 64 in
  let fields = Hashtbl.create 64 in
  let field_names = Hashtbl.create 64 in
  while not (Queue.is_empty pending) do
    let root = find (Queue.pop pending) in
    let c = class_of root in
    (match root.pointee with
     | Some p ->
       if not (Hashtbl.mem pointees c) then
         Hashtbl.replace pointees c (class_of p)
     | None -> ());
    let fs = List.sort_uniq compare (List.map fst root.fields) in
    if fs <> [] && not (Hashtbl.mem field_names c) then
      Hashtbl.replace field_names c fs;
    List.iter
      (fun f ->
        match List.assoc_opt f root.fields with
        | Some t ->
          if not (Hashtbl.mem fields (c, f)) then
            Hashtbl.replace fields (c, f) (class_of t)
        | None -> ())
      fs
  done;
  {
    site_classes;
    var_classes;
    ret_classes;
    pointees;
    fields;
    field_names;
    hints;
    struct_lists;
    heap = List.sort compare !heap;
    count = !counter;
  }

let analyze (program : Ast.program) =
  let b =
    {
      next_id = 0;
      vars = Hashtbl.create 64;
      rets = Hashtbl.create 16;
      site_nodes = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (_, name) -> Hashtbl.replace b.vars (qualified "" name) (fresh b))
    program.Ast.globals;
  List.iter
    (fun (f : Ast.func) ->
      List.iter
        (fun (_, p) -> Hashtbl.replace b.vars (qualified f.name p) (fresh b))
        f.params)
    program.Ast.funcs;
  let site_counter = ref 0 in
  (* Evaluate an expression to the node of its pointer value.  The
     traversal order matches {!Ast.iter_malloc_sites} exactly so
     the positional site numbering agrees. *)
  let rec eval fname e =
    match e with
    | Ast.Int _ | Ast.Null -> fresh b
    | Ast.Var x -> var_node b ~fname x
    | Ast.Binop (_, a, c) ->
      ignore (eval fname a);
      ignore (eval fname c);
      fresh b
    | Ast.Unop (_, a) ->
      ignore (eval fname a);
      fresh b
    | Ast.Field (base, fld, _) ->
      let obj = target b (eval fname base) in
      field_node b obj fld
    | Ast.Index (base, idx, _) ->
      (* Pointer arithmetic within the array: same value class. *)
      let v = eval fname base in
      ignore (eval fname idx);
      v
    | Ast.Malloc_array (s, count, p) | Ast.Pool_malloc_array (_, s, count, p)
      ->
      ignore (eval fname count);
      eval fname (Ast.Malloc (s, p))
    | Ast.Malloc (s, _) | Ast.Pool_malloc (_, s, _) ->
      let site = !site_counter in
      incr site_counter;
      let heap = heap_node b ~site ~struct_name:s in
      let value = fresh b in
      unify b (target b value) heap;
      value
    | Ast.Call (g, args) ->
      (match Ast.find_func program g with
       | Some callee ->
         List.iteri
           (fun i arg ->
             let arg_node = eval fname arg in
             match List.nth_opt callee.Ast.params i with
             | Some (_, p) -> unify b (var_node b ~fname:g p) arg_node
             | None -> ())
           args
       | None -> List.iter (fun arg -> ignore (eval fname arg)) args);
      ret_node b g
  in
  let rec stmt fname = function
    | Ast.Decl (_, x, init) ->
      let n =
        match Hashtbl.find_opt b.vars (qualified fname x) with
        | Some n -> n
        | None ->
          let n = fresh b in
          Hashtbl.replace b.vars (qualified fname x) n;
          n
      in
      (match init with
       | Some e -> unify b n (eval fname e)
       | None -> ())
    | Ast.Assign (x, e) -> unify b (var_node b ~fname x) (eval fname e)
    | Ast.Store (base, fld, e, _) ->
      let obj = target b (eval fname base) in
      unify b (field_node b obj fld) (eval fname e)
    | Ast.Free (e, _) | Ast.Pool_free (_, e, _) -> ignore (eval fname e)
    | Ast.Print e | Ast.Expr e -> ignore (eval fname e)
    | Ast.Return (Some e) -> unify b (ret_node b fname) (eval fname e)
    | Ast.Return None | Ast.Pool_init _ | Ast.Pool_destroy _ -> ()
    | Ast.If (cond, t, f) ->
      ignore (eval fname cond);
      List.iter (stmt fname) t;
      List.iter (stmt fname) f
    | Ast.While (cond, body) ->
      ignore (eval fname cond);
      List.iter (stmt fname) body
  in
  List.iter
    (fun (f : Ast.func) -> List.iter (stmt f.name) f.body)
    program.Ast.funcs;
  freeze b

(* ---- queries ---------------------------------------------------------- *)

let heap_classes t = t.heap
let class_count t = t.count

let site_class t site =
  match Hashtbl.find_opt t.site_classes site with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Dsa.site_class: unknown site %d" site)

let var_class t ~fname name =
  match Hashtbl.find_opt t.var_classes (qualified fname name) with
  | Some c -> Some c
  | None -> Hashtbl.find_opt t.var_classes (qualified "" name)

let ret_class t fname = Hashtbl.find_opt t.ret_classes fname
let pointee t c = Hashtbl.find_opt t.pointees c
let field_class t c f = Hashtbl.find_opt t.fields (c, f)
let struct_hint t c = Hashtbl.find_opt t.hints c

let struct_names t c =
  match Hashtbl.find_opt t.struct_lists c with Some l -> l | None -> []

let field_names t c =
  match Hashtbl.find_opt t.field_names c with Some l -> l | None -> []

let succ t c =
  (match pointee t c with Some p -> [ p ] | None -> [])
  @ List.filter_map (fun f -> field_class t c f) (field_names t c)

let rec expr_value_class t ~fname = function
  | Ast.Int _ | Ast.Null | Ast.Binop _ | Ast.Unop _ | Ast.Malloc _
  | Ast.Pool_malloc _ | Ast.Malloc_array _ | Ast.Pool_malloc_array _ ->
    None
  | Ast.Var x -> var_class t ~fname x
  | Ast.Index (base, _, _) -> expr_value_class t ~fname base
  | Ast.Field (base, f, _) ->
    Option.bind (expr_pointee_class t ~fname base) (fun c ->
        field_class t c f)
  | Ast.Call (g, _) -> ret_class t g

and expr_pointee_class t ~fname = function
  | Ast.Malloc _ | Ast.Malloc_array _ ->
    (* Handled positionally by consumers (they know the site). *)
    None
  | e -> Option.bind (expr_value_class t ~fname e) (pointee t)
