type pool_desc = {
  class_id : Dsa.class_id;
  pool_var : string;
  owner : string;
  struct_name : string option;
  global : bool;
}

type summary = {
  pools : pool_desc list;
  sites_rewritten : int;
  frees_rewritten : int;
}

exception Transform_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Transform_error s)) fmt
let pool_var_name c = Printf.sprintf "__pool%d" c

module S = Set.Make (String)
module C = Set.Make (Int)

(* ---- call graph ------------------------------------------------------ *)

let rec calls_in_expr acc = function
  | Ast.Int _ | Ast.Null | Ast.Var _ | Ast.Malloc _ | Ast.Pool_malloc _ -> acc
  | Ast.Binop (_, a, b) | Ast.Index (a, b, _) ->
    calls_in_expr (calls_in_expr acc a) b
  | Ast.Unop (_, a) | Ast.Field (a, _, _) | Ast.Malloc_array (_, a, _)
  | Ast.Pool_malloc_array (_, _, a, _) ->
    calls_in_expr acc a
  | Ast.Call (g, args) -> List.fold_left calls_in_expr (S.add g acc) args

let rec calls_in_stmt acc = function
  | Ast.Decl (_, _, Some e)
  | Ast.Assign (_, e)
  | Ast.Free (e, _)
  | Ast.Pool_free (_, e, _)
  | Ast.Print e
  | Ast.Expr e
  | Ast.Return (Some e) ->
    calls_in_expr acc e
  | Ast.Store (a, _, b, _) -> calls_in_expr (calls_in_expr acc a) b
  | Ast.If (c, t, f) ->
    let acc = calls_in_expr acc c in
    List.fold_left calls_in_stmt (List.fold_left calls_in_stmt acc t) f
  | Ast.While (c, body) ->
    List.fold_left calls_in_stmt (calls_in_expr acc c) body
  | Ast.Decl (_, _, None) | Ast.Return None | Ast.Pool_init _ | Ast.Pool_destroy _
    ->
    acc

let callees (f : Ast.func) = List.fold_left calls_in_stmt S.empty f.body

(* Functions reachable from [f] in the call graph, including [f]. *)
let reach_table (program : Ast.program) =
  let direct = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) -> Hashtbl.replace direct f.Ast.name (callees f))
    program.funcs;
  let memo = Hashtbl.create 16 in
  let rec go name visited =
    match Hashtbl.find_opt memo name with
    | Some set -> set
    | None ->
      if S.mem name visited then S.singleton name
      else begin
        let visited = S.add name visited in
        let children =
          match Hashtbl.find_opt direct name with
          | Some cs -> cs
          | None -> S.empty
        in
        let set =
          S.fold (fun c acc -> S.union acc (go c visited)) children
            (S.singleton name)
        in
        Hashtbl.replace memo name set;
        set
      end
  in
  fun name -> go name S.empty

(* ---- class usage ------------------------------------------------------ *)

(* Which functions touch each heap class: malloc sites, frees, and any
   field access (the last so that pooldestroy postdominates all uses). *)
let users_of_classes pt (program : Ast.program) =
  let users : (Dsa.class_id, S.t ref) Hashtbl.t = Hashtbl.create 16 in
  let add c fname =
    let cell =
      match Hashtbl.find_opt users c with
      | Some cell -> cell
      | None ->
        let cell = ref S.empty in
        Hashtbl.replace users c cell;
        cell
    in
    cell := S.add fname !cell
  in
  Ast.iter_malloc_sites program (fun ~site ~fname ~struct_name:_ ~pos:_ ->
      add (Dsa.site_class pt site) fname);
  let note_field fname base =
    match Dsa.expr_pointee_class pt ~fname base with
    | Some c -> add c fname
    | None -> ()
  in
  let rec expr fname = function
    | Ast.Int _ | Ast.Null | Ast.Var _ | Ast.Malloc _ | Ast.Pool_malloc _ -> ()
    | Ast.Binop (_, a, b) ->
      expr fname a;
      expr fname b
    | Ast.Unop (_, a)
    | Ast.Malloc_array (_, a, _)
    | Ast.Pool_malloc_array (_, _, a, _) ->
      expr fname a
    | Ast.Index (base, idx, _) ->
      (* Element access keeps the object class in use. *)
      (match Dsa.expr_pointee_class pt ~fname base with
       | Some c -> add c fname
       | None -> ());
      expr fname base;
      expr fname idx
    | Ast.Field (base, _, _) ->
      note_field fname base;
      expr fname base
    | Ast.Call (_, args) -> List.iter (expr fname) args
  in
  let rec stmt fname = function
    | Ast.Decl (_, _, Some e)
    | Ast.Assign (_, e)
    | Ast.Print e
    | Ast.Expr e
    | Ast.Return (Some e) ->
      expr fname e
    | Ast.Free (e, _) | Ast.Pool_free (_, e, _) ->
      (match Dsa.expr_pointee_class pt ~fname e with
       | Some c -> add c fname
       | None -> ());
      expr fname e
    | Ast.Store (base, _, e, _) ->
      note_field fname base;
      expr fname base;
      expr fname e
    | Ast.If (c, t, f) ->
      expr fname c;
      List.iter (stmt fname) t;
      List.iter (stmt fname) f
    | Ast.While (c, body) ->
      expr fname c;
      List.iter (stmt fname) body
    | Ast.Decl (_, _, None) | Ast.Return None | Ast.Pool_init _
    | Ast.Pool_destroy _ ->
      ()
  in
  List.iter
    (fun (f : Ast.func) -> List.iter (stmt f.name) f.body)
    program.funcs;
  fun c ->
    match Hashtbl.find_opt users c with
    | Some cell -> !cell
    | None -> S.empty

(* ---- owner selection --------------------------------------------------- *)

let plan pt program =
  let reach = reach_table program in
  let users = users_of_classes pt program in
  let global_set = C.of_list (Escape.reachable_from_globals pt program) in
  let main_name =
    match Ast.find_func program "main" with
    | Some f -> f.Ast.name
    | None -> fail "pool transform requires a main function"
  in
  List.map
    (fun c ->
      let us = users c in
      let global_owner () = (c, main_name, true) in
      if C.mem c global_set then global_owner ()
      else begin
        let candidates =
          List.filter
            (fun (f : Ast.func) ->
              (not (Escape.escapes pt f c)) && S.subset us (reach f.Ast.name))
            program.Ast.funcs
        in
        match candidates with
        | [] -> global_owner ()
        | _ ->
          (* Deepest viable owner = the one with the smallest call
             subtree; ties broken by name for determinism. *)
          let best =
            List.fold_left
              (fun best (f : Ast.func) ->
                let size = S.cardinal (reach f.Ast.name) in
                match best with
                | None -> Some (f.Ast.name, size)
                | Some (bname, bsize) ->
                  if size < bsize || (size = bsize && f.Ast.name < bname) then
                    Some (f.Ast.name, size)
                  else best)
              None candidates
          in
          (match best with
           | Some (owner, _) -> (c, owner, false)
           | None -> global_owner ())
      end)
    (Dsa.heap_classes pt)

(* ---- descriptor flow --------------------------------------------------- *)

(* needed f c: f allocates/frees from c, or calls someone who needs the
   descriptor and is not its owner. *)
let compute_needed pt (program : Ast.program) owners =
  let owner_of c =
    let rec find = function
      | [] -> fail "class %d has no owner" c
      | (c', o, _) :: rest -> if c = c' then o else find rest
    in
    find owners
  in
  (* Only classes that actually contain malloc sites have pools; a [free]
     whose pointer class never received an allocation (dead code, or a
     pointer provably always null) stays a plain free. *)
  let pool_classes = C.of_list (Dsa.heap_classes pt) in
  let direct = Hashtbl.create 16 in
  let add fname c =
    if C.mem c pool_classes then begin
      let cur =
        match Hashtbl.find_opt direct fname with
        | Some s -> s
        | None -> C.empty
      in
      Hashtbl.replace direct fname (C.add c cur)
    end
  in
  Ast.iter_malloc_sites program (fun ~site ~fname ~struct_name:_ ~pos:_ ->
      add fname (Dsa.site_class pt site));
  let rec frees fname = function
    | Ast.Free (e, _) | Ast.Pool_free (_, e, _) ->
      (match Dsa.expr_pointee_class pt ~fname e with
       | Some c -> add fname c
       | None -> ())
    | Ast.If (_, t, f) ->
      List.iter (frees fname) t;
      List.iter (frees fname) f
    | Ast.While (_, body) -> List.iter (frees fname) body
    | Ast.Decl _ | Ast.Assign _ | Ast.Store _ | Ast.Print _ | Ast.Expr _
    | Ast.Return _ | Ast.Pool_init _ | Ast.Pool_destroy _ ->
      ()
  in
  List.iter
    (fun (f : Ast.func) -> List.iter (frees f.name) f.body)
    program.funcs;
  let needed = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.replace needed f.Ast.name
        (match Hashtbl.find_opt direct f.Ast.name with
         | Some s -> s
         | None -> C.empty))
    program.funcs;
  let get tbl name =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None -> C.empty
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ast.func) ->
        let mine = get needed f.Ast.name in
        let wanted =
          S.fold
            (fun g acc ->
              C.union acc (C.filter (fun c -> owner_of c <> g) (get needed g)))
            (callees f) mine
        in
        if not (C.equal wanted mine) then begin
          Hashtbl.replace needed f.Ast.name wanted;
          changed := true
        end)
      program.funcs
  done;
  fun fname -> get needed fname

(* ---- rewriting --------------------------------------------------------- *)

let transform (program : Ast.program) =
  Typecheck.check program;
  let pt = Dsa.analyze program in
  let pool_classes = C.of_list (Dsa.heap_classes pt) in
  let owners = plan pt program in
  let needed = compute_needed pt program owners in
  let owner_of c =
    List.filter_map (fun (c', o, _) -> if c = c' then Some o else None) owners
    |> function
    | [ o ] -> o
    | _ -> fail "class %d has no unique owner" c
  in
  (* Pool parameters of each function, in deterministic class order. *)
  let pool_params_of fname =
    C.elements (needed fname)
    |> List.filter (fun c -> owner_of c <> fname)
    |> List.map pool_var_name
  in
  let site_counter = ref 0 in
  let sites_rewritten = ref 0 in
  let frees_rewritten = ref 0 in
  let rec rewrite_expr fname e =
    match e with
    | Ast.Int _ | Ast.Null | Ast.Var _ -> e
    | Ast.Binop (op, a, b) ->
      let a = rewrite_expr fname a in
      let b = rewrite_expr fname b in
      Ast.Binop (op, a, b)
    | Ast.Unop (op, a) -> Ast.Unop (op, rewrite_expr fname a)
    | Ast.Field (base, f, p) -> Ast.Field (rewrite_expr fname base, f, p)
    | Ast.Index (base, idx, p) ->
      let base = rewrite_expr fname base in
      let idx = rewrite_expr fname idx in
      Ast.Index (base, idx, p)
    | Ast.Malloc_array (s, count, p) | Ast.Pool_malloc_array (_, s, count, p) ->
      (* Site numbering: the count subexpression is visited first, then
         this site — mirroring the analysis traversal. *)
      let count = rewrite_expr fname count in
      let site = !site_counter in
      incr site_counter;
      incr sites_rewritten;
      Ast.Pool_malloc_array
        (pool_var_name (Dsa.site_class pt site), s, count, p)
    | Ast.Malloc (s, p) | Ast.Pool_malloc (_, s, p) ->
      let site = !site_counter in
      incr site_counter;
      incr sites_rewritten;
      Ast.Pool_malloc (pool_var_name (Dsa.site_class pt site), s, p)
    | Ast.Call (g, args) ->
      let args = List.map (rewrite_expr fname) args in
      let extra = List.map (fun pv -> Ast.Var pv) (pool_params_of g) in
      Ast.Call (g, args @ extra)
  in
  let rec rewrite_stmt fname destroys stmt =
    match stmt with
    | Ast.Decl (t, x, init) ->
      [ Ast.Decl (t, x, Option.map (rewrite_expr fname) init) ]
    | Ast.Assign (x, e) -> [ Ast.Assign (x, rewrite_expr fname e) ]
    | Ast.Store (base, f, e, p) ->
      let base = rewrite_expr fname base in
      let e = rewrite_expr fname e in
      [ Ast.Store (base, f, e, p) ]
    | Ast.Free (e, p) | Ast.Pool_free (_, e, p) ->
      let e = rewrite_expr fname e in
      (match Dsa.expr_pointee_class pt ~fname e with
       | Some c when C.mem c pool_classes ->
         incr frees_rewritten;
         [ Ast.Pool_free (pool_var_name c, e, p) ]
       | Some _ | None -> [ Ast.Free (e, p) ])
    | Ast.Print e -> [ Ast.Print (rewrite_expr fname e) ]
    | Ast.Expr e -> [ Ast.Expr (rewrite_expr fname e) ]
    | Ast.Return e ->
      let e = Option.map (rewrite_expr fname) e in
      List.map (fun pv -> Ast.Pool_destroy pv) destroys @ [ Ast.Return e ]
    | Ast.If (c, t, f) ->
      let c = rewrite_expr fname c in
      let t = List.concat_map (rewrite_stmt fname destroys) t in
      let f = List.concat_map (rewrite_stmt fname destroys) f in
      [ Ast.If (c, t, f) ]
    | Ast.While (c, body) ->
      let c = rewrite_expr fname c in
      [ Ast.While (c, List.concat_map (rewrite_stmt fname destroys) body) ]
    | Ast.Pool_init _ | Ast.Pool_destroy _ -> [ stmt ]
  in
  let ends_with_return body =
    match List.rev body with
    | Ast.Return _ :: _ -> true
    | _ -> false
  in
  (* Functions must be rewritten in program order so the site counter
     matches the analysis numbering. *)
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        let fname = f.Ast.name in
        let owned =
          List.filter_map
            (fun (c, o, _) -> if o = fname then Some c else None)
            owners
          |> List.sort compare
        in
        let destroys = List.map pool_var_name owned in
        let inits =
          List.map
            (fun c ->
              Ast.Pool_init
                (pool_var_name c, Option.value ~default:"" (Dsa.struct_hint pt c)))
            owned
        in
        let body = List.concat_map (rewrite_stmt fname destroys) f.Ast.body in
        let body =
          if ends_with_return body then inits @ body
          else
            inits @ body
            @ List.map (fun pv -> Ast.Pool_destroy pv) destroys
        in
        { f with Ast.body; pool_params = pool_params_of fname })
      program.funcs
  in
  let transformed = { program with Ast.funcs } in
  let pools =
    List.map
      (fun (c, owner, global) ->
        {
          class_id = c;
          pool_var = pool_var_name c;
          owner;
          struct_name = Dsa.struct_hint pt c;
          global;
        })
      owners
  in
  ( transformed,
    {
      pools;
      sites_rewritten = !sites_rewritten;
      frees_rewritten = !frees_rewritten;
    } )

let callee_names f = S.elements (callees f)
