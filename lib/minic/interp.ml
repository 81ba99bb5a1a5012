exception Null_dereference of string
exception Runtime_error of string

type outcome = Detected of Shadow.Report.t | Crashed of string

type stop = { site : string * Ast.pos; outcome : outcome }

type result = { prints : int list; steps : int; stopped : stop option }

let stop_label { site = fname, pos; outcome } =
  match outcome with
  | Detected r -> "TEMPORAL ERROR DETECTED: " ^ Shadow.Report.to_string r
  | Crashed m ->
    Printf.sprintf "UNDETECTED CRASH at %s@%s: %s" fname (Ast.pos_label pos) m

(* Deeper recursion than any committed program reaches by far; past it a
   runaway recursion is an error in the program, not a host crash. *)
let max_call_depth = 10_000

exception Return_value of int option

type frame = {
  vars : (string, int) Hashtbl.t;
  pools : (string, Runtime.Scheme.pool_handle) Hashtbl.t;
  depth : int;  (* call nesting: 1 in main *)
}

type state = {
  program : Ast.program;
  scheme : Runtime.Scheme.t;
  globals : (string, int) Hashtbl.t;
  global_pools : (string, Runtime.Scheme.pool_handle) Hashtbl.t;
  mutable steps : int;
  max_steps : int;
  mutable prints : int list;
  mutable site : string * Ast.pos;
      (* set before every scheme call, so a stopped run names its site *)
}

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let step st =
  st.steps <- st.steps + 1;
  st.scheme.Runtime.Scheme.compute 1;
  if st.steps > st.max_steps then fail "exceeded %d interpreter steps" st.max_steps

(* A name's binding in the frame, else in the globals. *)
let scoped local global name =
  match Hashtbl.find_opt local name with
  | None -> Hashtbl.find_opt global name
  | found -> found

let lookup what local global name =
  match scoped local global name with
  | Some v -> v
  | None -> fail "unbound %s %s" what name

let lookup_var st frame = lookup "variable" frame.vars st.globals
let lookup_pool st frame = lookup "pool descriptor" frame.pools st.global_pools

let set_var st frame name v =
  if Hashtbl.mem frame.vars name then Hashtbl.replace frame.vars name v
  else if Hashtbl.mem st.globals name then Hashtbl.replace st.globals name v
  else fail "assignment to unbound variable %s" name

let truthy v = v <> 0
let of_bool b = if b then 1 else 0

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
    st.site <- (fname, pos);
    st.scheme.Runtime.Scheme.load (addr + off) ~width:8
  | Ast.Malloc (s, pos) -> alloc st frame fname None s None pos
  | Ast.Malloc_array (s, count, pos) ->
    alloc st frame fname None s (Some count) pos
  | Ast.Pool_malloc (pv, s, pos) -> alloc st frame fname (Some pv) s None pos
  | Ast.Pool_malloc_array (pv, s, count, pos) ->
    alloc st frame fname (Some pv) s (Some count) pos
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
  | Ast.Call (g, args) ->
    (match call st fname g args frame with
     | Some v -> v
     | None -> fail "void result of %s used as a value" g)

(* [malloc]/[poolalloc] of one struct [s], or of [count] of them; the
   site string names the call as written, with its position. *)
and alloc st frame fname pool s count pos =
  let op = if pool = None then "malloc" else "poolalloc" in
  let n, arg =
    match count with
    | None -> (1, "")
    | Some e ->
      let n = eval st frame fname e in
      if n <= 0 then
        fail "%s: %s(struct %s, %d): count must be positive" fname op s n;
      (n, Printf.sprintf ", %d" n)
  in
  let size = n * Ast.struct_size st.program s in
  let pool_arg = Option.fold ~none:"" ~some:(fun pv -> pv ^ ", ") pool in
  let site =
    Printf.sprintf "%s:%s(%sstruct %s%s)%s" fname op pool_arg s arg
      (Ast.pos_suffix pos)
  in
  st.site <- (fname, pos);
  match pool with
  | None -> st.scheme.Runtime.Scheme.malloc ~site size
  | Some pv -> (lookup_pool st frame pv).Runtime.Scheme.pool_alloc ~site size

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
    Option.map
      (fun id -> fst (List.nth st.program.Ast.structs id))
      (scoped frame.vars st.globals ("%type:" ^ x))
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
    let value_args = List.filteri (fun i _ -> i < n_params) args in
    let pool_args = List.filteri (fun i _ -> i >= n_params) args in
    let depth = caller_frame.depth + 1 in
    if depth > max_call_depth then
      fail "%s: call depth exceeded %d" g max_call_depth;
    let frame = { vars = Hashtbl.create 16; pools = Hashtbl.create 4; depth } in
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

(* [free]/[poolfree] of a non-null pointer. *)
and free st frame fname pool e pos =
  let v = eval st frame fname e in
  if v <> 0 then begin
    let op = Option.fold pool ~none:"free" ~some:(Printf.sprintf "poolfree(%s)") in
    let site = Printf.sprintf "%s:%s%s" fname op (Ast.pos_suffix pos) in
    st.site <- (fname, pos);
    match pool with
    | None -> st.scheme.Runtime.Scheme.free ~site v
    | Some pv -> (lookup_pool st frame pv).Runtime.Scheme.pool_free ~site v
  end

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
    st.site <- (fname, pos);
    st.scheme.Runtime.Scheme.store (addr + off) ~width:8 v
  | Ast.Free (e, pos) -> free st frame fname None e pos
  | Ast.Pool_free (pv, e, pos) -> free st frame fname (Some pv) e pos
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
    st.site <- (fname, Ast.no_pos);
    let handle = st.scheme.Runtime.Scheme.pool_create ?elem_size () in
    if fname = "main" then Hashtbl.replace st.global_pools pv handle;
    Hashtbl.replace frame.pools pv handle
  | Ast.Pool_destroy pv ->
    let pool = lookup_pool st frame pv in
    st.site <- (fname, Ast.no_pos);
    pool.Runtime.Scheme.pool_destroy ()

let run ?(max_steps = 50_000_000) program scheme =
  let st =
    {
      program;
      scheme;
      globals = Hashtbl.create 16;
      global_pools = Hashtbl.create 4;
      steps = 0;
      max_steps;
      prints = [];
      site = ("<top>", Ast.no_pos);
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
   | Some f -> if f.Ast.params <> [] then fail "main must take no parameters");
  let top = { vars = Hashtbl.create 1; pools = Hashtbl.create 1; depth = 0 } in
  let main () = ignore (call st "<top>" "main" [] top); 0 in
  let stopped =
    match Workload.Fault_injection.observe main with
    | Silent _ -> None
    | Detected r -> Some { site = st.site; outcome = Detected r }
    | Crashed m | Crashed_degraded m ->
      Some { site = st.site; outcome = Crashed m }
  in
  { prints = List.rev st.prints; steps = st.steps; stopped }
