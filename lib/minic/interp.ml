exception Null_dereference of string
exception Runtime_error of string

type outcome = { prints : int list; steps : int }

exception Return_value of int option

type frame = {
  vars : (string, int) Hashtbl.t;
  pools : (string, Runtime.Scheme.pool_handle) Hashtbl.t;
}

type state = {
  program : Ast.program;
  scheme : Runtime.Scheme.t;
  globals : (string, int) Hashtbl.t;
  global_pools : (string, Runtime.Scheme.pool_handle) Hashtbl.t;
  mutable steps : int;
  max_steps : int;
  mutable prints : int list;
  on_violation : (fname:string -> pos:Ast.pos -> Shadow.Report.t -> unit) option;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let step st =
  st.steps <- st.steps + 1;
  st.scheme.Runtime.Scheme.compute 1;
  if st.steps > st.max_steps then fail "exceeded %d interpreter steps" st.max_steps

let lookup_var st frame name =
  match Hashtbl.find_opt frame.vars name with
  | Some v -> v
  | None ->
    (match Hashtbl.find_opt st.globals name with
     | Some v -> v
     | None -> fail "unbound variable %s" name)

let set_var st frame name v =
  if Hashtbl.mem frame.vars name then Hashtbl.replace frame.vars name v
  else if Hashtbl.mem st.globals name then Hashtbl.replace st.globals name v
  else fail "assignment to unbound variable %s" name

let lookup_pool st frame name =
  match Hashtbl.find_opt frame.pools name with
  | Some p -> p
  | None ->
    (match Hashtbl.find_opt st.global_pools name with
     | Some p -> p
     | None -> fail "unbound pool descriptor %s" name)

let truthy v = v <> 0
let of_bool b = if b then 1 else 0

(* Run a guarded memory operation; a detected violation is reported to
   the differential-oracle hook (with the syntactic use site) before
   propagating, so tests can match dynamic violations against static
   verdicts per source position. *)
let guarded st ~fname ~pos f =
  match st.on_violation with
  | None -> f ()
  | Some hook ->
    (try f ()
     with Shadow.Report.Violation r ->
       hook ~fname ~pos r;
       raise (Shadow.Report.Violation r))

let rec eval st frame fname expr =
  step st;
  match expr with
  | Ast.Int n -> n
  | Ast.Null -> 0
  | Ast.Var x -> lookup_var st frame x
  | Ast.Binop (op, a, b) -> eval_binop st frame fname op a b
  | Ast.Unop (Ast.Neg, a) -> -eval st frame fname a
  | Ast.Unop (Ast.Not, a) -> of_bool (not (truthy (eval st frame fname a)))
  | Ast.Field (base, f, pos) ->
    let addr, off = field_addr st frame fname base f in
    guarded st ~fname ~pos (fun () ->
        st.scheme.Runtime.Scheme.load (addr + off) ~width:8)
  | Ast.Malloc (s, pos) ->
    st.scheme.Runtime.Scheme.malloc
      ~site:
        (Printf.sprintf "%s:malloc(struct %s)%s" fname s (Ast.pos_suffix pos))
      (Ast.struct_size st.program s)
  | Ast.Malloc_array (s, count, pos) ->
    let n = eval st frame fname count in
    if n <= 0 then fail "%s: malloc(struct %s, %d): count must be positive" fname s n;
    st.scheme.Runtime.Scheme.malloc
      ~site:
        (Printf.sprintf "%s:malloc(struct %s, %d)%s" fname s n
           (Ast.pos_suffix pos))
      (n * Ast.struct_size st.program s)
  | Ast.Pool_malloc_array (pv, s, count, pos) ->
    let n = eval st frame fname count in
    if n <= 0 then fail "%s: poolalloc(struct %s, %d): count must be positive" fname s n;
    let pool = lookup_pool st frame pv in
    pool.Runtime.Scheme.pool_alloc
      ~site:
        (Printf.sprintf "%s:poolalloc(%s, struct %s, %d)%s" fname pv s n
           (Ast.pos_suffix pos))
      (n * Ast.struct_size st.program s)
  | Ast.Index (base, idx, _) ->
    let addr = eval st frame fname base in
    if addr = 0 then
      raise (Null_dereference (Printf.sprintf "%s: null[...]" fname));
    let i = eval st frame fname idx in
    let sname =
      match struct_of_expr st fname frame base with
      | Some s -> s
      | None -> fail "%s: cannot type base of [...]" fname
    in
    addr + (i * Ast.struct_size st.program sname)
  | Ast.Pool_malloc (pv, s, pos) ->
    let pool = lookup_pool st frame pv in
    pool.Runtime.Scheme.pool_alloc
      ~site:
        (Printf.sprintf "%s:poolalloc(%s, struct %s)%s" fname pv s
           (Ast.pos_suffix pos))
      (Ast.struct_size st.program s)
  | Ast.Call (g, args) ->
    (match call st fname g args frame with
     | Some v -> v
     | None -> fail "void result of %s used as a value" g)

and eval_binop st frame fname op a b =
  match op with
  | Ast.And ->
    if truthy (eval st frame fname a) then
      of_bool (truthy (eval st frame fname b))
    else 0
  | Ast.Or ->
    if truthy (eval st frame fname a) then 1
    else of_bool (truthy (eval st frame fname b))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Eq | Ast.Ne
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let x = eval st frame fname a in
    let y = eval st frame fname b in
    (match op with
     | Ast.Add -> x + y
     | Ast.Sub -> x - y
     | Ast.Mul -> x * y
     | Ast.Div -> if y = 0 then fail "division by zero" else x / y
     | Ast.Mod -> if y = 0 then fail "modulo by zero" else x mod y
     | Ast.Eq -> of_bool (x = y)
     | Ast.Ne -> of_bool (x <> y)
     | Ast.Lt -> of_bool (x < y)
     | Ast.Le -> of_bool (x <= y)
     | Ast.Gt -> of_bool (x > y)
     | Ast.Ge -> of_bool (x >= y)
     | Ast.And | Ast.Or ->
       (* invariant: short-circuit ops are handled by the arms above *)
       assert false)

and field_addr st frame fname base f =
  let addr = eval st frame fname base in
  if addr = 0 then
    raise (Null_dereference (Printf.sprintf "%s: null->%s" fname f));
  (* Field offsets need the struct type of the base expression. *)
  let sname =
    match struct_of_expr st fname frame base with
    | Some s -> s
    | None -> fail "%s: cannot type base of ->%s" fname f
  in
  (addr, 8 * Ast.field_index st.program sname f)

(* Static struct type of a pointer expression; the per-frame declared
   types recorded at Decl/param-bind time make this a cheap lookup. *)
and struct_of_expr st fname frame = function
  | Ast.Var x ->
    (match Hashtbl.find_opt frame.vars ("%type:" ^ x) with
     | Some id -> Some (List.nth (List.map fst st.program.Ast.structs) id)
     | None ->
       (match Hashtbl.find_opt st.globals ("%type:" ^ x) with
        | Some id -> Some (List.nth (List.map fst st.program.Ast.structs) id)
        | None -> None))
  | Ast.Field (base, f, _) ->
    Option.bind (struct_of_expr st fname frame base) (fun sname ->
        match
          List.assoc_opt f
            (List.map (fun (t, n) -> (n, t)) (Ast.struct_fields st.program sname))
        with
        | Some (Ast.Tptr s) -> Some s
        | Some Ast.Tint | None -> None)
  | Ast.Malloc (s, _)
  | Ast.Pool_malloc (_, s, _)
  | Ast.Malloc_array (s, _, _)
  | Ast.Pool_malloc_array (_, s, _, _) ->
    Some s
  | Ast.Index (base, _, _) -> struct_of_expr st fname frame base
  | Ast.Call (g, _) ->
    Option.bind (Ast.find_func st.program g) (fun fn ->
        match fn.Ast.ret with
        | Some (Ast.Tptr s) -> Some s
        | Some Ast.Tint | None -> None)
  | Ast.Int _ | Ast.Null | Ast.Binop _ | Ast.Unop _ -> None

and struct_id st sname =
  let rec go i = function
    | [] -> fail "unknown struct %s" sname
    | (n, _) :: rest -> if n = sname then i else go (i + 1) rest
  in
  go 0 st.program.Ast.structs

and bind_typed st frame name typ value =
  Hashtbl.replace frame.vars name value;
  match typ with
  | Ast.Tptr s -> Hashtbl.replace frame.vars ("%type:" ^ name) (struct_id st s)
  | Ast.Tint -> ()

and call st caller g args caller_frame =
  match Ast.find_func st.program g with
  | None -> fail "%s: call to undefined function %s" caller g
  | Some callee ->
    let n_params = List.length callee.Ast.params in
    let value_args, pool_args =
      let rec split i = function
        | [] -> ([], [])
        | arg :: rest ->
          let vs, ps = split (i + 1) rest in
          if i < n_params then (arg :: vs, ps) else (vs, arg :: ps)
      in
      split 0 args
    in
    let frame = { vars = Hashtbl.create 16; pools = Hashtbl.create 4 } in
    List.iter2
      (fun (typ, p) arg ->
        bind_typed st frame p typ (eval st caller_frame caller arg))
      callee.Ast.params value_args;
    List.iter2
      (fun pv arg ->
        match arg with
        | Ast.Var name ->
          Hashtbl.replace frame.pools pv (lookup_pool st caller_frame name)
        | _ -> fail "pool argument of %s is not a descriptor variable" g)
      callee.Ast.pool_params pool_args;
    (try
       exec_stmts st frame callee.Ast.name callee.Ast.body;
       None
     with Return_value v -> v)

and exec_stmts st frame fname stmts = List.iter (exec_stmt st frame fname) stmts

and exec_stmt st frame fname stmt =
  step st;
  match stmt with
  | Ast.Decl (typ, x, init) ->
    let v =
      match init with
      | Some e -> eval st frame fname e
      | None -> 0
    in
    bind_typed st frame x typ v
  | Ast.Assign (x, e) -> set_var st frame x (eval st frame fname e)
  | Ast.Store (base, f, e, pos) ->
    let addr, off = field_addr st frame fname base f in
    let v = eval st frame fname e in
    guarded st ~fname ~pos (fun () ->
        st.scheme.Runtime.Scheme.store (addr + off) ~width:8 v)
  | Ast.Free (e, pos) ->
    let v = eval st frame fname e in
    if v <> 0 then
      guarded st ~fname ~pos (fun () ->
          st.scheme.Runtime.Scheme.free
            ~site:(Printf.sprintf "%s:free%s" fname (Ast.pos_suffix pos))
            v)
  | Ast.Pool_free (pv, e, pos) ->
    let v = eval st frame fname e in
    if v <> 0 then begin
      let pool = lookup_pool st frame pv in
      guarded st ~fname ~pos (fun () ->
          pool.Runtime.Scheme.pool_free
            ~site:
              (Printf.sprintf "%s:poolfree(%s)%s" fname pv (Ast.pos_suffix pos))
            v)
    end
  | Ast.If (c, t, f) ->
    if truthy (eval st frame fname c) then exec_stmts st frame fname t
    else exec_stmts st frame fname f
  | Ast.While (c, body) ->
    let rec loop () =
      if truthy (eval st frame fname c) then begin
        exec_stmts st frame fname body;
        loop ()
      end
    in
    loop ()
  | Ast.Return e ->
    raise (Return_value (Option.map (eval st frame fname) e))
  | Ast.Print e -> st.prints <- eval st frame fname e :: st.prints
  | Ast.Expr e ->
    (match e with
     | Ast.Call (g, args) -> ignore (call st fname g args frame)
     | _ -> ignore (eval st frame fname e))
  | Ast.Pool_init (pv, sname) ->
    let elem_size =
      if sname = "" then None else Some (Ast.struct_size st.program sname)
    in
    let handle = st.scheme.Runtime.Scheme.pool_create ?elem_size () in
    if fname = "main" then Hashtbl.replace st.global_pools pv handle;
    Hashtbl.replace frame.pools pv handle
  | Ast.Pool_destroy pv ->
    let pool = lookup_pool st frame pv in
    pool.Runtime.Scheme.pool_destroy ()

let run ?(max_steps = 50_000_000) ?on_violation program scheme =
  let st =
    {
      program;
      scheme;
      globals = Hashtbl.create 16;
      global_pools = Hashtbl.create 4;
      steps = 0;
      max_steps;
      prints = [];
      on_violation;
    }
  in
  List.iter
    (fun (typ, name) ->
      Hashtbl.replace st.globals name 0;
      match typ with
      | Ast.Tptr s -> Hashtbl.replace st.globals ("%type:" ^ name) (struct_id st s)
      | Ast.Tint -> ())
    program.Ast.globals;
  (match Ast.find_func program "main" with
   | None -> fail "no main function"
   | Some f ->
     if f.Ast.params <> [] then fail "main must take no parameters";
     ignore (call st "<top>" "main" [] { vars = Hashtbl.create 1; pools = Hashtbl.create 1 }));
  { prints = List.rev st.prints; steps = st.steps }
