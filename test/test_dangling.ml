(* Tests for the static dangling-pointer analysis stack: CFG
   construction, verdict unit tests, the pretty-printer round trip, the
   pinned JSON goldens behind `danguard lint --json`, and the
   differential soundness oracle — generated MiniC programs with seeded
   temporal bugs, each judged by [Minic.Interp.run] under the shadow
   schemes, checking that every dynamic violation lands on a May/Must
   site and that protection elision never loses a detection. *)

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string
let parse = Minic.Parser.parse

let sample_dir dir =
  let up = Filename.concat "../../.." dir in
  if Sys.file_exists up then up else dir

let sample_file dir name =
  In_channel.with_open_text
    (Filename.concat (sample_dir dir) name)
    In_channel.input_all

let find_func (p : Minic.Ast.program) fname =
  List.find (fun (f : Minic.Ast.func) -> f.Minic.Ast.name = fname)
    p.Minic.Ast.funcs

(* ---- CFG construction ---- *)

(* succ/pred symmetry: s is a successor of b iff b is a predecessor of
   s — for every block, reachable or not. *)
let check_cfg_consistent (cfg : Minic.Cfg.t) =
  Array.iter
    (fun (b : Minic.Cfg.block) ->
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "pred of succ %d->%d" b.Minic.Cfg.id s)
            true
            (List.mem b.Minic.Cfg.id cfg.Minic.Cfg.blocks.(s).Minic.Cfg.preds))
        b.Minic.Cfg.succs;
      List.iter
        (fun pr ->
          check_bool
            (Printf.sprintf "succ of pred %d->%d" pr b.Minic.Cfg.id)
            true
            (List.mem b.Minic.Cfg.id cfg.Minic.Cfg.blocks.(pr).Minic.Cfg.succs))
        b.Minic.Cfg.preds)
    cfg.Minic.Cfg.blocks

let has_cycle (cfg : Minic.Cfg.t) =
  let n = Array.length cfg.Minic.Cfg.blocks in
  let visited = Array.make n false in
  let on_stack = Array.make n false in
  let rec dfs b =
    visited.(b) <- true;
    on_stack.(b) <- true;
    let cyc =
      List.exists
        (fun s -> on_stack.(s) || ((not visited.(s)) && dfs s))
        cfg.Minic.Cfg.blocks.(b).Minic.Cfg.succs
    in
    on_stack.(b) <- false;
    cyc
  in
  dfs cfg.Minic.Cfg.entry

let cfg_of src fname = Minic.Cfg.build (find_func (parse src) fname)

let test_cfg_linear () =
  let cfg = cfg_of "void main() { int x = 1; print(x); }" "main" in
  check_cfg_consistent cfg;
  let rpo = Minic.Cfg.rpo cfg in
  check_bool "entry first in rpo" true (List.hd rpo = cfg.Minic.Cfg.entry);
  check_bool "linear code is acyclic" false (has_cycle cfg);
  Array.iter
    (fun (b : Minic.Cfg.block) ->
      List.iter
        (fun i ->
          match i with
          | Minic.Cfg.Simple (Minic.Ast.If _ | Minic.Ast.While _) ->
            Alcotest.fail "structured statement survived flattening"
          | _ -> ())
        b.Minic.Cfg.instrs)
    cfg.Minic.Cfg.blocks

let test_cfg_if () =
  let cfg =
    cfg_of
      "void main() { int x = 1; if (x > 0) { print(1); } else { print(2); } \
       print(3); }"
      "main"
  in
  check_cfg_consistent cfg;
  check_bool "if is acyclic" false (has_cycle cfg);
  let branches =
    Array.to_list cfg.Minic.Cfg.blocks
    |> List.filter (fun (b : Minic.Cfg.block) ->
           List.length b.Minic.Cfg.succs = 2)
  in
  check_int "one two-way branch" 1 (List.length branches);
  let joins =
    Array.to_list cfg.Minic.Cfg.blocks
    |> List.filter (fun (b : Minic.Cfg.block) ->
           List.length b.Minic.Cfg.preds = 2)
  in
  check_int "one join block" 1 (List.length joins)

let test_cfg_while () =
  let cfg =
    cfg_of
      "void main() { int i = 0; while (i < 3) { i = i + 1; } print(i); }"
      "main"
  in
  check_cfg_consistent cfg;
  check_bool "loop has a back edge" true (has_cycle cfg);
  let rpo = Minic.Cfg.rpo cfg in
  check_bool "rpo covers the loop" true (List.length rpo >= 3)

let test_cfg_return_cuts () =
  let cfg =
    cfg_of "int f() { return 1; print(2); }" "f"
  in
  check_cfg_consistent cfg;
  let reachable = Minic.Cfg.rpo cfg in
  (* the return block ends the reachable region; the print after it is
     in an unreachable block that rpo omits *)
  check_bool "unreachable tail omitted" true
    (List.length reachable < Array.length cfg.Minic.Cfg.blocks);
  List.iter
    (fun b ->
      let blk = cfg.Minic.Cfg.blocks.(b) in
      let is_ret =
        List.exists
          (function
            | Minic.Cfg.Simple (Minic.Ast.Return _) -> true
            | _ -> false)
          blk.Minic.Cfg.instrs
      in
      if is_ret then check_int "return block has no succs" 0
          (List.length blk.Minic.Cfg.succs))
    reachable

(* ---- verdict unit tests ---- *)

let analyze src = Minic.Dangling.analyze (parse src)

let counts r = Minic.Dangling.count_findings r

let site_verdicts (r : Minic.Dangling.result) =
  List.map (fun (s : Minic.Dangling.site) -> s.Minic.Dangling.verdict)
    r.Minic.Dangling.sites

let test_verdict_straightline_safe () =
  let r = analyze (sample_file "examples/lint" "safe.mc") in
  let _, may, must = counts r in
  check_int "no may" 0 may;
  check_int "no must" 0 must;
  check_bool "all sites elidable" true
    (List.for_all (( = ) Minic.Dangling.Safe) (site_verdicts r))

let test_verdict_must_uaf () =
  let r = analyze (sample_file "examples/lint" "must_uaf.mc") in
  let _, _, must = counts r in
  check_int "one must" 1 must;
  check_bool "has_must" true (Minic.Dangling.has_must r);
  check_bool "site not elidable" true
    (site_verdicts r = [ Minic.Dangling.Must_uaf ])

let test_verdict_alias_may () =
  let r = analyze (sample_file "examples/lint" "may_alias.mc") in
  let _, may, must = counts r in
  check_int "one may via alias" 1 may;
  check_int "no must" 0 must;
  check_bool "site keeps protection" true
    (site_verdicts r = [ Minic.Dangling.May_uaf ])

let test_verdict_double_free () =
  let r = analyze (sample_file "examples/lint" "double_free.mc") in
  let must_frees =
    List.filter
      (fun (fd : Minic.Dangling.finding) ->
        fd.Minic.Dangling.kind = Minic.Dangling.Free_op
        && fd.Minic.Dangling.verdict = Minic.Dangling.Must_uaf)
      r.Minic.Dangling.findings
  in
  check_int "double free is a must free-op" 1 (List.length must_frees)

(* Reallocation in a loop: the variable is rebound to a fresh object of
   the same site each iteration, so its uses stay Safe even though the
   class has seen frees — the freshness escape hatch. *)
let test_verdict_loop_fresh () =
  let r =
    analyze
      {|
struct s { int v; }
void main() {
  int i = 0;
  int acc = 0;
  while (i < 4) {
    struct s *tmp = malloc(struct s);
    tmp->v = i;
    acc = acc + tmp->v;
    free(tmp);
    i = i + 1;
  }
  print(acc);
}
|}
  in
  let _, may, must = counts r in
  check_int "no may" 0 may;
  check_int "no must" 0 must;
  check_bool "loop site elidable" true
    (site_verdicts r = [ Minic.Dangling.Safe ])

(* A callee that frees its argument poisons the caller's pointer: the
   interprocedural may-free summary makes the later deref a May. *)
let test_verdict_interproc_free () =
  let r =
    analyze
      {|
struct s { int v; }
void kill(struct s *p) { free(p); }
void main() {
  struct s *x = malloc(struct s);
  x->v = 1;
  kill(x);
  print(x->v);
}
|}
  in
  let _, may, must = counts r in
  check_bool "deref after callee free flagged" true (may + must >= 1);
  check_bool "site not elidable" true
    (site_verdicts r <> [ Minic.Dangling.Safe ])

(* The free two call levels below the use (main -> kill2 -> kill ->
   free): the may-free summary must propagate transitively through the
   chain, not just one level (regression for a summary-union bug that
   made these uses look Safe and the site elidable). *)
let test_verdict_transitive_free () =
  let r =
    analyze
      {|
struct s { int v; }
void kill(struct s *p) { free(p); }
void kill2(struct s *p) { kill(p); }
void kill3(struct s *p) { kill2(p); }
void main() {
  struct s *x = malloc(struct s);
  x->v = 1;
  kill3(x);
  print(x->v);
}
|}
  in
  let _, may, must = counts r in
  check_bool "deref after deep callee free flagged" true (may + must >= 1);
  check_bool "site not elidable" true
    (site_verdicts r <> [ Minic.Dangling.Safe ])

(* Branch-dependent free: freed on one path only, so the use after the
   join is May, not Must. *)
let test_verdict_branch_may () =
  let r =
    analyze
      {|
struct s { int v; }
void main() {
  struct s *p = malloc(struct s);
  p->v = 1;
  if (p->v > 0) { free(p); } else { p->v = 2; }
  print(p->v);
}
|}
  in
  let may_derefs =
    List.filter
      (fun (fd : Minic.Dangling.finding) ->
        fd.Minic.Dangling.kind = Minic.Dangling.Deref
        && fd.Minic.Dangling.verdict = Minic.Dangling.May_uaf)
      r.Minic.Dangling.findings
  in
  let _, _, must = counts r in
  check_bool "join makes it may" true (List.length may_derefs >= 1);
  check_int "not must" 0 must

(* The paper's Figure 1: the seeded bug (deref of the freed second node
   in f) must be flagged, while f's own head allocation stays Safe. *)
let test_verdict_figure1 () =
  let r = analyze (sample_file "examples/programs" "figure1.mc") in
  let _, may, must = counts r in
  check_bool "figure1 bug flagged" true (may + must >= 1);
  check_bool "some site still elidable" true
    (List.exists (( = ) Minic.Dangling.Safe) (site_verdicts r));
  check_bool "the list class is not elidable" true
    (List.exists (( <> ) Minic.Dangling.Safe) (site_verdicts r))

(* Field sensitivity: freeing the object behind s->a must not poison
   the read through s->b.  The field-sensitive DSA partition keeps the
   two fields in separate classes, so every use is Safe — the regression
   fixture for the collapsed-field false positive. *)
let test_verdict_field_disjoint () =
  let src = sample_file "examples/lint" "field_disjoint.mc" in
  let r = Minic.Dangling.analyze (parse src) in
  let _, may, must = counts r in
  check_int "no may" 0 may;
  check_int "no must" 0 must;
  check_bool "all sites elidable" true
    (List.for_all (( = ) Minic.Dangling.Safe) (site_verdicts r));
  (* The transform's pool table, pinned: one pool for the holder and
     one per item field (a collapsed-field partition yields two). *)
  let transformed, summary = Minic.Pool_transform.transform (parse src) in
  let pools = summary.Minic.Pool_transform.pools in
  check_int "three pools" 3 (List.length pools);
  Alcotest.(check (list string))
    "pool element types" [ "holder"; "item"; "item" ]
    (List.sort compare
       (List.map
          (fun (d : Minic.Pool_transform.pool_desc) ->
            Option.value ~default:"?" d.Minic.Pool_transform.struct_name)
          pools));
  let pool_of_field f =
    let pools =
      List.concat_map
        (fun (fn : Minic.Ast.func) ->
          List.filter_map
            (function
              | Minic.Ast.Store (_, f', Minic.Ast.Pool_malloc (pv, _, _), _)
                when f' = f ->
                Some pv
              | _ -> None)
            fn.Minic.Ast.body)
        transformed.Minic.Ast.funcs
    in
    match pools with
    | [ pv ] -> pv
    | _ -> Alcotest.failf "expected one pooled allocation into s->%s" f
  in
  check_bool "s->a and s->b items in separate pools" true
    (pool_of_field "a" <> pool_of_field "b")

(* ---- satellite 6: typed layout errors ---- *)

let test_layout_errors_typed () =
  (match Minic.Ast.struct_size { structs = []; globals = []; funcs = [] } "nope"
   with
   | _ -> Alcotest.fail "unknown struct should raise"
   | exception Minic.Ast.Semantic_error _ -> ());
  match
    Minic.Ast.field_index
      { structs = [ ("s", [ (Minic.Ast.Tint, "v") ]) ]; globals = []; funcs = [] }
      "s" "missing"
  with
  | _ -> Alcotest.fail "unknown field should raise"
  | exception Minic.Ast.Semantic_error _ -> ()

(* ---- satellite 2: pretty-printer round trip ---- *)

let roundtrip_ok src =
  let p = parse src in
  let reparsed = parse (Minic.Pretty.program_to_string p) in
  Minic.Ast.strip_positions reparsed = Minic.Ast.strip_positions p

let test_roundtrip_examples () =
  List.iter
    (fun (dir, name) ->
      check_bool (name ^ " round-trips") true
        (roundtrip_ok (sample_file dir name)))
    [
      ("examples/programs", "figure1.mc");
      ("examples/programs", "matrix.mc");
      ("examples/programs", "server_session.mc");
      ("examples/lint", "safe.mc");
      ("examples/lint", "must_uaf.mc");
      ("examples/lint", "may_alias.mc");
      ("examples/lint", "double_free.mc");
      ("examples/lint", "deep_free.mc");
      ("examples/lint", "field_disjoint.mc");
    ]

(* ---- golden files for `danguard lint --json` ---- *)

let test_lint_goldens () =
  List.iter
    (fun name ->
      let src = sample_file "examples/lint" (name ^ ".mc") in
      let expected = sample_file "examples/lint" (name ^ ".expected.json") in
      let d =
        Minic.Diagnostics.make
          ~file:(Filename.concat "examples/lint" (name ^ ".mc"))
          (Minic.Dangling.analyze (parse src))
      in
      check_string (name ^ " golden json")
        expected
        (Telemetry.Json.to_string_pretty (Minic.Diagnostics.to_json d) ^ "\n"))
    [
      "safe"; "must_uaf"; "may_alias"; "double_free"; "deep_free";
      "field_disjoint";
    ]

(* SARIF output is interchange format: its shape is a contract with
   external consumers, so it gets its own golden. *)
let test_lint_sarif_golden () =
  let src = sample_file "examples/lint" "must_uaf.mc" in
  let expected = sample_file "examples/lint" "must_uaf.expected.sarif" in
  let d =
    Minic.Diagnostics.make
      ~file:(Filename.concat "examples/lint" "must_uaf.mc")
      (Minic.Dangling.analyze (parse src))
  in
  check_string "must_uaf golden sarif" expected
    (Telemetry.Json.to_string_pretty (Minic.Diagnostics.to_sarif d) ^ "\n")

let test_lint_exit_codes () =
  let code name =
    let src = sample_file "examples/lint" (name ^ ".mc") in
    Minic.Diagnostics.exit_code
      (Minic.Diagnostics.make ~file:name (Minic.Dangling.analyze (parse src)))
  in
  check_int "safe exits 0" 0 (code "safe");
  check_int "field disjoint exits 0" 0 (code "field_disjoint");
  check_int "may exits 0" 0 (code "may_alias");
  check_int "deep free exits 0" 0 (code "deep_free");
  check_int "must exits 3" 3 (code "must_uaf");
  check_int "double free exits 3" 3 (code "double_free")

(* ---- the differential soundness oracle ---- *)

type seeded_bug = No_bug | Use_after_release | Must_uaf_bug | Double_free_bug

let bug_label = function
  | No_bug -> "none"
  | Use_after_release -> "use-after-release"
  | Must_uaf_bug -> "must-uaf"
  | Double_free_bug -> "double-free"

let victim_tail b bug =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  match bug with
  | No_bug | Use_after_release -> ()
  | Must_uaf_bug ->
    add "  struct node *victim = malloc(struct node);";
    add "  victim->v = 7;";
    add "  free(victim);";
    add "  print(victim->v);"
  | Double_free_bug ->
    add "  struct node *victim = malloc(struct node);";
    add "  victim->v = 7;";
    add "  free(victim);";
    add "  free(victim);"

(* List-shaped program: heap-carried pointers and a release loop, which
   the analysis conservatively marks May (nothing elided). *)
let gen_list_program ~n ~seed ~bug =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  add "struct node *build(int n, int seed) {";
  add "  struct node *head = null;";
  add "  int i = 0;";
  add "  while (i < n) {";
  add "    struct node *fresh = malloc(struct node);";
  add "    fresh->v = seed + i;";
  add "    fresh->next = head;";
  add "    head = fresh;";
  add "    i = i + 1;";
  add "  }";
  add "  return head;";
  add "}";
  add "int total(struct node *head) {";
  add "  int acc = 0;";
  add "  struct node *cur = head;";
  add "  while (cur != null) { acc = acc + cur->v; cur = cur->next; }";
  add "  return acc;";
  add "}";
  add "void release(struct node *head) {";
  add "  struct node *cur = head;";
  add "  while (cur != null) {";
  add "    struct node *nxt = cur->next;";
  add "    free(cur);";
  add "    cur = nxt;";
  add "  }";
  add "}";
  add "void main() {";
  add "  struct node *l0 = build(%d, %d);" n seed;
  add "  print(total(l0));";
  add "  release(l0);";
  if bug = Use_after_release then add "  print(total(l0));";
  victim_tail b bug;
  add "}";
  Buffer.contents b

(* Scalar-shaped program: one object per iteration, freed before the
   next allocation — every use Safe, so the whole class is elidable. *)
let gen_scalar_program ~iters ~seed ~bug =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  add "void main() {";
  add "  int acc = 0;";
  add "  int i = 0;";
  add "  while (i < %d) {" iters;
  add "    struct node *tmp = malloc(struct node);";
  add "    tmp->v = i + %d;" seed;
  add "    acc = acc + tmp->v;";
  add "    free(tmp);";
  add "    i = i + 1;";
  add "  }";
  add "  print(acc);";
  victim_tail b bug;
  add "}";
  Buffer.contents b

(* Deep-release variant of the list program: the frees happen two call
   levels below main (main -> release_outer -> release_inner -> free),
   so only transitive may-free summaries can keep main's later uses
   flagged.  Use_after_release is exactly the repro for the
   one-level-only propagation bug. *)
let gen_deep_free_program ~n ~seed ~bug =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  add "struct node *build(int n, int seed) {";
  add "  struct node *head = null;";
  add "  int i = 0;";
  add "  while (i < n) {";
  add "    struct node *fresh = malloc(struct node);";
  add "    fresh->v = seed + i;";
  add "    fresh->next = head;";
  add "    head = fresh;";
  add "    i = i + 1;";
  add "  }";
  add "  return head;";
  add "}";
  add "int total(struct node *head) {";
  add "  int acc = 0;";
  add "  struct node *cur = head;";
  add "  while (cur != null) { acc = acc + cur->v; cur = cur->next; }";
  add "  return acc;";
  add "}";
  add "void release_inner(struct node *head) {";
  add "  struct node *cur = head;";
  add "  while (cur != null) {";
  add "    struct node *nxt = cur->next;";
  add "    free(cur);";
  add "    cur = nxt;";
  add "  }";
  add "}";
  add "void release_outer(struct node *head) { release_inner(head); }";
  add "void main() {";
  add "  struct node *l0 = build(%d, %d);" n seed;
  add "  print(total(l0));";
  add "  release_outer(l0);";
  if bug = Use_after_release then add "  print(total(l0));";
  victim_tail b bug;
  add "}";
  Buffer.contents b

(* Cross-function escape: the callee's allocation outlives its frame by
   escaping into a caller-owned struct, and the free happens in a second
   callee.  Exercises the DSA store/load field edges and the owner
   inference (the node pool must be hoisted to main, not fill). *)
let gen_escape_program ~n ~seed ~bug =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  add "struct box { struct node *item; }";
  add "void fill(struct box *b, int v) {";
  add "  struct node *fresh = malloc(struct node);";
  add "  fresh->v = v;";
  add "  b->item = fresh;";
  add "}";
  add "int drain(struct box *b) {";
  add "  int v = b->item->v;";
  add "  free(b->item);";
  add "  return v;";
  add "}";
  add "void main() {";
  add "  struct box *holder = malloc(struct box);";
  add "  int acc = 0;";
  add "  int i = 0;";
  add "  while (i < %d) {" n;
  add "    fill(holder, %d + i);" seed;
  add "    acc = acc + drain(holder);";
  add "    i = i + 1;";
  add "  }";
  add "  print(acc);";
  if bug = Use_after_release then add "  print(holder->item->v);";
  add "  free(holder);";
  victim_tail b bug;
  add "}";
  Buffer.contents b

(* Conditional frees: every free sits under a branch, so the analysis
   can never prove Must at the free itself and the joins produce May
   states.  The [Use_after_release] variant reads after a conditional
   free whose guard is dynamically always true. *)
let gen_cond_free_program ~iters ~seed ~bug =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  add "void main() {";
  add "  int acc = 0;";
  add "  int i = 0;";
  add "  while (i < %d) {" iters;
  add "    struct node *tmp = malloc(struct node);";
  add "    tmp->v = i + %d;" seed;
  add "    if (tmp->v %% 2 == 0) {";
  add "      free(tmp);";
  add "    } else {";
  add "      acc = acc + tmp->v;";
  add "      free(tmp);";
  add "    }";
  add "    i = i + 1;";
  add "  }";
  add "  struct node *keep = malloc(struct node);";
  add "  keep->v = %d;" seed;
  add "  if (keep->v < 1000) {";
  add "    free(keep);";
  add "  }";
  if bug = Use_after_release then add "  print(keep->v);";
  add "  print(acc);";
  victim_tail b bug;
  add "}";
  Buffer.contents b

(* Recursive structure: a binary tree built, summed and released by
   recursive functions.  The self-recursive calls cycle the callee
   graph, so owner-depth inference and transitive may-free summaries
   both have to converge on a cycle. *)
let gen_tree_program ~depth ~seed ~bug =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  add "struct tree { int v; struct tree *left; struct tree *right; }";
  add "struct tree *build(int depth, int seed) {";
  add "  if (depth < 1) {";
  add "    return null;";
  add "  }";
  add "  struct tree *t = malloc(struct tree);";
  add "  t->v = seed + depth;";
  add "  t->left = build(depth - 1, seed);";
  add "  t->right = build(depth - 1, seed + depth);";
  add "  return t;";
  add "}";
  add "int total(struct tree *t) {";
  add "  if (t == null) {";
  add "    return 0;";
  add "  }";
  add "  return t->v + total(t->left) + total(t->right);";
  add "}";
  add "void release(struct tree *t) {";
  add "  if (t == null) {";
  add "    return;";
  add "  }";
  add "  release(t->left);";
  add "  release(t->right);";
  add "  free(t);";
  add "}";
  add "void main() {";
  add "  struct tree *t0 = build(%d, %d);" depth seed;
  add "  print(total(t0));";
  add "  release(t0);";
  if bug = Use_after_release then add "  print(total(t0));";
  victim_tail b bug;
  add "}";
  Buffer.contents b

(* The site of a run's detected stop, as a list: empty, or the one use
   where a diagnosed violation ended the run. *)
let detections (run : Minic.Interp.result) =
  match run.stopped with
  | Some { site; outcome = Detected _ } -> [ site ]
  | Some _ | None -> []

(* The soundness contract: a dynamic temporal violation may only happen
   at a use the analysis marked May or Must.  A violation at a
   Safe-marked use is a hole in the lattice and fails the suite, and so
   does a crash the scheme did not diagnose. *)
let check_violations_covered ~ctx (r : Minic.Dangling.result)
    (run : Minic.Interp.result) =
  match run.stopped with
  | None -> ()
  | Some { site = (fname, pos) as site; outcome = Detected _ } ->
    if not (Minic.Dangling.covers r site) then
      Alcotest.failf
        "%s: dynamic violation at %s:%s hit a site the analysis marked Safe"
        ctx fname (Minic.Ast.pos_label pos)
  | Some ({ outcome = Crashed _; _ } as stop) ->
    Alcotest.failf "%s: %s" ctx (Minic.Interp.stop_label stop)

let oracle_one ~ctx ~expect_elision source bug =
  let program = parse source in
  let r = Minic.Dangling.analyze program in
  let transformed, _ = Minic.Pool_transform.transform program in
  let judged label scheme =
    let run = Minic.Interp.run transformed scheme in
    check_violations_covered ~ctx:(ctx ^ "/" ^ label) r run;
    run
  in
  (* full scheme: every violation must be at a flagged use *)
  let full_machine = Vmm.Machine.create () in
  let viol_full =
    detections (judged "full" (Runtime.Schemes.shadow_pool full_machine))
  in
  (* static elision with the empty policy elides nothing, so it is the
     full scheme plus counters: the same machine counters, cycles and
     violations, which is why it needs no catalogue entry of its own *)
  let empty_machine = Vmm.Machine.create () in
  let viol_empty =
    detections
      (judged "empty"
         (Runtime.Schemes.shadow_pool_static
            ~config:{ Runtime.Schemes.elide = (fun _ -> false) }
            empty_machine))
  in
  check_bool (ctx ^ ": empty-policy static violations = full") true
    (viol_empty = viol_full);
  check_bool (ctx ^ ": empty-policy static stats = full") true
    (Vmm.Stats.snapshot empty_machine.Vmm.Machine.stats
    = Vmm.Stats.snapshot full_machine.Vmm.Machine.stats);
  check_bool (ctx ^ ": empty-policy static cycles = full") true
    (Vmm.Machine.cycles empty_machine = Vmm.Machine.cycles full_machine);
  (* epoch-batched scheme: deferred protection must not change what is
     detected or where — the detected site must be exactly the eager
     scheme's, whether the use trapped in the MMU after retirement or
     hit the in-window software backstop *)
  let out_epoch =
    judged "epoch" (Runtime.Schemes.shadow_pool_epoch (Vmm.Machine.create ()))
  in
  check_bool (ctx ^ ": epoch detections identical to eager scheme") true
    (detections out_epoch = viol_full);
  (* static-elision scheme: same contract, plus detection must survive *)
  let static_scheme =
    Runtime.Schemes.shadow_pool_static
      ~config:{ Runtime.Schemes.elide = Minic.Dangling.elide_policy r }
      (Vmm.Machine.create ())
  in
  let out_static = judged "static" static_scheme in
  let viol_static = detections out_static in
  (* inferred-pool scheme over the same transform: each inferred
     pool is a separate shadow pool whose destroy bulk-unmaps its VA, so
     a violation in a correct program here would mean an access after an
     inferred pool_destroy — the pool-lifetime soundness contract *)
  let out_inferred =
    judged "inferred"
      (Runtime.Schemes.shadow_pool_inferred (Vmm.Machine.create ()))
  in
  let viol_inferred = detections out_inferred in
  (* tagged backend: the pure-software generation check must detect
     exactly what the MMU-trap scheme detects, at the same site.  The
     only permitted asymmetry is a tag-width wraparound, which the wide
     generation attributes exactly — any divergence must be covered by
     the recorded wrap passes. *)
  let tagged_scheme = Runtime.Schemes.tagged (Vmm.Machine.create ()) in
  let out_tagged = judged "tagged" tagged_scheme in
  let viol_tagged = detections out_tagged in
  (if viol_tagged <> viol_full then
     let ts =
       match Runtime.Schemes.introspect tagged_scheme with
       | Runtime.Schemes.Tagged { table; _ } -> Tagging.Tag_table.stats table
       | _ -> assert false
     in
     let missing = List.length viol_full - List.length viol_tagged in
     if
       missing <= 0 || ts.Tagging.Tag_table.wrap_masked_passes < missing
       || not
            (List.for_all (fun v -> List.mem v viol_full) viol_tagged)
     then
       Alcotest.failf
         "%s: tagged detections differ from shadow without an attributing \
          wraparound (%d tagged vs %d shadow, %d wrap passes)"
         ctx (List.length viol_tagged) (List.length viol_full)
         ts.Tagging.Tag_table.wrap_masked_passes);
  (match bug with
   | No_bug ->
     if viol_full <> [] || viol_static <> [] then
       Alcotest.failf "%s: correct program raised a violation" ctx;
     if viol_inferred <> [] then
       Alcotest.failf
         "%s: correct program violated under inferred pools (access after \
          inferred pool destroy)"
         ctx;
     if viol_tagged <> [] then
       Alcotest.failf "%s: correct program violated under tagged backend" ctx;
     let out_native =
       Minic.Interp.run transformed
         (Runtime.Schemes.native (Vmm.Machine.create ()))
     in
     if out_native.stopped <> None then
       Alcotest.failf "%s: correct program stopped under native" ctx;
     List.iter
       (fun (label, (run : Minic.Interp.result)) ->
         check_bool
           (Printf.sprintf "%s: native/%s outputs equal" ctx label)
           true
           (out_native.prints = run.prints))
       [
         ("static", out_static);
         ("epoch", out_epoch);
         ("inferred", out_inferred);
         ("tagged", out_tagged);
       ]
   | Use_after_release | Must_uaf_bug | Double_free_bug ->
     if viol_full = [] then
       Alcotest.failf "%s: seeded bug not detected under full scheme" ctx;
     if viol_static = [] then
       Alcotest.failf "%s: seeded bug not detected under static elision" ctx;
     if viol_inferred = [] then
       Alcotest.failf "%s: seeded bug not detected under inferred pools" ctx;
     if viol_tagged = [] then
       Alcotest.failf "%s: seeded bug not detected under tagged backend" ctx);
  (match bug with
   | Must_uaf_bug | Double_free_bug ->
     check_bool (ctx ^ ": lint reports the seeded must bug") true
       (Minic.Dangling.has_must r)
   | No_bug | Use_after_release -> ());
  if expect_elision then
    check_bool (ctx ^ ": safe class elided") true
      (Telemetry.Metrics.count
         (Vmm.Stats.registry
            static_scheme.Runtime.Scheme.machine.Vmm.Machine.stats)
         "elide.allocs"
      > 0)

let test_oracle () =
  let cases = ref 0 in
  for seed = 0 to 24 do
    List.iter
      (fun bug ->
        let n = 1 + (seed mod 7) in
        let ctx =
          Printf.sprintf "list n=%d seed=%d bug=%s" n seed (bug_label bug)
        in
        incr cases;
        oracle_one ~ctx ~expect_elision:false
          (gen_list_program ~n ~seed ~bug)
          bug)
      [ No_bug; Use_after_release; Must_uaf_bug; Double_free_bug ]
  done;
  for seed = 0 to 9 do
    List.iter
      (fun bug ->
        let n = 1 + (seed mod 5) in
        let ctx =
          Printf.sprintf "deep n=%d seed=%d bug=%s" n seed (bug_label bug)
        in
        incr cases;
        oracle_one ~ctx ~expect_elision:false
          (gen_deep_free_program ~n ~seed ~bug)
          bug)
      [ No_bug; Use_after_release; Must_uaf_bug; Double_free_bug ]
  done;
  for seed = 0 to 33 do
    List.iter
      (fun bug ->
        let iters = 1 + (seed mod 9) in
        let ctx =
          Printf.sprintf "scalar iters=%d seed=%d bug=%s" iters seed
            (bug_label bug)
        in
        incr cases;
        (* the per-iteration class is provably Safe, so elision must
           actually kick in — including alongside a detected bug *)
        oracle_one ~ctx ~expect_elision:true
          (gen_scalar_program ~iters ~seed ~bug)
          bug)
      [ No_bug; Must_uaf_bug; Double_free_bug ]
  done;
  for seed = 0 to 9 do
    List.iter
      (fun bug ->
        let n = 1 + (seed mod 4) in
        let ctx =
          Printf.sprintf "escape n=%d seed=%d bug=%s" n seed (bug_label bug)
        in
        incr cases;
        oracle_one ~ctx ~expect_elision:false
          (gen_escape_program ~n ~seed ~bug)
          bug)
      [ No_bug; Use_after_release; Must_uaf_bug; Double_free_bug ]
  done;
  for seed = 0 to 9 do
    List.iter
      (fun bug ->
        let iters = 1 + (seed mod 6) in
        let ctx =
          Printf.sprintf "cond iters=%d seed=%d bug=%s" iters seed
            (bug_label bug)
        in
        incr cases;
        oracle_one ~ctx ~expect_elision:false
          (gen_cond_free_program ~iters ~seed ~bug)
          bug)
      [ No_bug; Use_after_release; Must_uaf_bug; Double_free_bug ]
  done;
  for seed = 0 to 7 do
    List.iter
      (fun bug ->
        let depth = 1 + (seed mod 3) in
        let ctx =
          Printf.sprintf "tree depth=%d seed=%d bug=%s" depth seed
            (bug_label bug)
        in
        incr cases;
        oracle_one ~ctx ~expect_elision:false
          (gen_tree_program ~depth ~seed ~bug)
          bug)
      [ No_bug; Use_after_release; Must_uaf_bug; Double_free_bug ]
  done;
  check_bool "oracle covers at least 340 programs" true (!cases >= 340)

(* Round-trip over the oracle's generated space too. *)
let test_roundtrip_generated () =
  for seed = 0 to 9 do
    List.iter
      (fun bug ->
        check_bool "generated list program round-trips" true
          (roundtrip_ok (gen_list_program ~n:(1 + seed) ~seed ~bug));
        check_bool "generated scalar program round-trips" true
          (roundtrip_ok (gen_scalar_program ~iters:(1 + seed) ~seed ~bug));
        check_bool "generated deep-free program round-trips" true
          (roundtrip_ok (gen_deep_free_program ~n:(1 + seed) ~seed ~bug));
        check_bool "generated escape program round-trips" true
          (roundtrip_ok (gen_escape_program ~n:(1 + seed) ~seed ~bug));
        check_bool "generated cond-free program round-trips" true
          (roundtrip_ok (gen_cond_free_program ~iters:(1 + seed) ~seed ~bug));
        check_bool "generated tree program round-trips" true
          (roundtrip_ok (gen_tree_program ~depth:(1 + (seed mod 3)) ~seed ~bug)))
      [ No_bug; Use_after_release; Must_uaf_bug; Double_free_bug ]
  done

(* ---- pool inference ---- *)

let feq a b = Float.abs (a -. b) < 1e-9

let test_poolify_risk_formula () =
  let risk = Minic.Poolify.risk_score in
  (* a Safe, non-escaping site alone in its pool carries zero risk *)
  check_bool "safe lone site risk 0" true
    (feq 0.0
       (risk ~verdict:Minic.Dangling.Safe ~density:0.0 ~escape_depth:0
          ~pool_sites:1));
  (* Must at full density, one escape level, two-site pool:
     0.55*1*(0.5+0.5) + 0.30*(1/2) + 0.15*(1/2) *)
  check_bool "must risk 0.775" true
    (feq 0.775
       (risk ~verdict:Minic.Dangling.Must_uaf ~density:1.0 ~escape_depth:1
          ~pool_sites:2));
  (* May with no flagged density, no escape, lone site: 0.55*0.5*0.5 *)
  check_bool "may risk 0.1375" true
    (feq 0.1375
       (risk ~verdict:Minic.Dangling.May_uaf ~density:0.0 ~escape_depth:0
          ~pool_sites:1));
  (* risk is monotone in escape depth and bounded by 1 *)
  let r d =
    risk ~verdict:Minic.Dangling.Must_uaf ~density:1.0 ~escape_depth:d
      ~pool_sites:100
  in
  check_bool "risk monotone in escape depth" true (r 4 > r 1);
  check_bool "risk bounded by 1" true (r 1000 <= 1.0)

let test_poolify_deterministic () =
  let src = sample_file "examples/programs" "figure1.mc" in
  let dump () =
    Telemetry.Json.to_string_pretty
      (Minic.Poolify.to_json ~file:"figure1.mc"
         (Minic.Poolify.analyze (parse src)))
  in
  check_string "pool map byte-identical across runs" (dump ()) (dump ());
  let r = Minic.Poolify.analyze (parse src) in
  check_bool "pools sorted by id" true
    (List.sort compare (List.map (fun (p : Minic.Poolify.pool) -> p.id) r.pools)
     = List.map (fun (p : Minic.Poolify.pool) -> p.id) r.pools);
  check_bool "sites sorted by ordinal" true
    (List.sort compare
       (List.map (fun (s : Minic.Poolify.site_score) -> s.ordinal) r.sites)
     = List.map (fun (s : Minic.Poolify.site_score) -> s.ordinal) r.sites)

(* The escape generator's node class is allocated in [fill] but escapes
   into a main-owned box, so its pool must be hoisted to main and its
   site must carry positive escape pressure. *)
let test_poolify_escape_owner () =
  let program = parse (gen_escape_program ~n:3 ~seed:1 ~bug:No_bug) in
  let r = Minic.Poolify.analyze program in
  let node_site =
    List.find
      (fun (s : Minic.Poolify.site_score) -> s.struct_name = "node")
      r.sites
  in
  let node_pool =
    List.find
      (fun (p : Minic.Poolify.pool) -> p.id = node_site.pool_id)
      r.pools
  in
  check_string "escaping node pool owned by main" "main" node_pool.owner;
  check_bool "escaping site has positive escape depth" true
    (node_site.escape_depth > 0);
  List.iter
    (fun (p : Minic.Poolify.pool) ->
      check_bool "typed MiniC pools are homogeneous" true p.homogeneous;
      check_int "homogeneous pool has one struct type" 1
        (List.length p.struct_names))
    r.pools

(* ---- the judged run under every scheme spec ---- *)

(* Every committed MiniC program, pool-transformed, under every spec:
   only an error in the program escapes [Interp.run], every detected
   stop is at a use the analysis flagged, the recovering scheme never
   stops, a scheme without a detector never reports a detection, and
   only such a scheme may crash. *)
let test_run_contract_every_spec () =
  let programs =
    List.concat_map
      (fun dir ->
        Sys.readdir (sample_dir dir)
        |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".mc")
        |> List.sort compare
        |> List.map (fun f -> (f, parse (sample_file dir f))))
      [ "examples/lint"; "examples/programs" ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun (file, program) ->
          let ctx =
            Printf.sprintf "%s under %s" file
              (Runtime.Scheme_spec.to_string spec)
          in
          let r = Minic.Dangling.analyze program in
          let transformed, _ = Minic.Pool_transform.transform program in
          let scheme = Harness.Experiment.make_scheme spec () in
          match Minic.Interp.run transformed scheme with
          | exception Minic.Interp.Runtime_error _
            when file = "negative_count.mc" ->
            ()
          | { stopped = None; _ } -> ()
          | { stopped = Some ({ site; outcome } as stop); _ } -> (
            match (spec, outcome) with
            | Runtime.Scheme_spec.Recover _, _ ->
              Alcotest.failf "%s: the recovering scheme stopped: %s" ctx
                (Minic.Interp.stop_label stop)
            | (Native | Llvm_base | Pa _), Crashed _ -> ()
            | (Native | Llvm_base | Pa _), Detected _ ->
              Alcotest.failf "%s: a scheme with no detector reported one" ctx
            | _, Crashed _ ->
              Alcotest.failf "%s: a detecting scheme missed it: %s" ctx
                (Minic.Interp.stop_label stop)
            | _, Detected _ ->
              if not (Minic.Dangling.covers r site) then
                Alcotest.failf "%s: detected at %s@%s, a use marked Safe" ctx
                  (fst site) (Minic.Ast.pos_label (snd site))))
        programs)
    Runtime.Scheme_spec.all

let () =
  Alcotest.run "dangling"
    [
      ( "cfg",
        [
          Alcotest.test_case "linear" `Quick test_cfg_linear;
          Alcotest.test_case "if/else" `Quick test_cfg_if;
          Alcotest.test_case "while back edge" `Quick test_cfg_while;
          Alcotest.test_case "return cuts flow" `Quick test_cfg_return_cuts;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "straight-line safe" `Quick
            test_verdict_straightline_safe;
          Alcotest.test_case "must uaf" `Quick test_verdict_must_uaf;
          Alcotest.test_case "alias may" `Quick test_verdict_alias_may;
          Alcotest.test_case "double free" `Quick test_verdict_double_free;
          Alcotest.test_case "loop freshness" `Quick test_verdict_loop_fresh;
          Alcotest.test_case "interprocedural free" `Quick
            test_verdict_interproc_free;
          Alcotest.test_case "transitive free" `Quick
            test_verdict_transitive_free;
          Alcotest.test_case "branch join may" `Quick test_verdict_branch_may;
          Alcotest.test_case "field disjoint" `Quick
            test_verdict_field_disjoint;
          Alcotest.test_case "figure 1" `Quick test_verdict_figure1;
          Alcotest.test_case "typed layout errors" `Quick
            test_layout_errors_typed;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "examples round-trip" `Quick
            test_roundtrip_examples;
          Alcotest.test_case "generated round-trip" `Quick
            test_roundtrip_generated;
        ] );
      ( "lint",
        [
          Alcotest.test_case "golden json" `Quick test_lint_goldens;
          Alcotest.test_case "golden sarif" `Quick test_lint_sarif_golden;
          Alcotest.test_case "exit codes" `Quick test_lint_exit_codes;
        ] );
      ( "poolify",
        [
          Alcotest.test_case "risk formula" `Quick test_poolify_risk_formula;
          Alcotest.test_case "deterministic pool map" `Quick
            test_poolify_deterministic;
          Alcotest.test_case "escape owner and homogeneity" `Quick
            test_poolify_escape_owner;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "differential soundness" `Quick test_oracle;
          Alcotest.test_case "judged run under every spec" `Quick
            test_run_contract_every_spec;
        ] );
    ]
