(* Static protection elision, measured end to end: each MiniC workload
   is analysed by Minic.Dangling, pool-transformed, then run twice on
   fresh machines — once under the full shadow-pool scheme and once
   under Runtime.Schemes.shadow_pool_static with the analysis's
   elide_policy.  The row records how many allocations skipped the
   shadow alias and how many mremap/mprotect syscalls that saved, plus a
   differential check that both runs print the same values.

   Sources are embedded (not read from examples/) so the bench binary
   has no working-directory dependence.

   The probes then re-run seeded-bug programs under the *static* scheme
   and assert the violation still fires at a position the analysis
   flagged May/Must: elision must never cost a detection.  [run] gates
   all of this. *)

module J = Telemetry.Json

(* Per-iteration array rows, used and freed before the next allocation:
   the whole class is provably Safe, so every alloc/free is elided. *)
let src_matrix =
  {|
struct cell { int v; struct cell *link; }

int row_sum(struct cell *row, int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + row[i]->v;
    i = i + 1;
  }
  return acc;
}

void main() {
  int n = 1;
  int total = 0;
  while (n <= 24) {
    struct cell *row = malloc(struct cell, n);
    int i = 0;
    while (i < n) {
      row[i]->v = n * 10 + i;
      row[i]->link = null;
      i = i + 1;
    }
    total = total + row_sum(row, n);
    free(row);
    n = n + 1;
  }
  print(total);
}
|}

(* Allocator churn: one short-lived object per iteration. *)
let src_churn =
  {|
struct box { int v; struct box *pad; }

void main() {
  int acc = 0;
  int i = 0;
  while (i < 200) {
    struct box *tmp = malloc(struct box);
    tmp->v = i;
    acc = acc + tmp->v;
    free(tmp);
    i = i + 1;
  }
  print(acc);
}
|}

(* Heap-carried list with a release loop: the analysis cannot prove the
   nodes Safe (loads of possibly-freed neighbours), so nothing is
   elided and the run is identical to the full scheme — the row shows
   the conservative side of the policy. *)
let src_list =
  {|
struct node { int v; struct node *next; }

struct node *build(int n) {
  struct node *head = null;
  int i = 0;
  while (i < n) {
    struct node *fresh = malloc(struct node);
    fresh->v = i;
    fresh->next = head;
    head = fresh;
    i = i + 1;
  }
  return head;
}

int total(struct node *head) {
  int acc = 0;
  struct node *cur = head;
  while (cur != null) { acc = acc + cur->v; cur = cur->next; }
  return acc;
}

void release(struct node *head) {
  struct node *cur = head;
  while (cur != null) {
    struct node *nxt = cur->next;
    free(cur);
    cur = nxt;
  }
}

void main() {
  struct node *l = build(50);
  print(total(l));
  release(l);
}
|}

(* Mixed: a long-lived list (protected) plus per-request scratch
   buffers (elided) — the shape the paper's servers have. *)
let src_mixed =
  {|
struct node { int v; struct node *next; }
struct scratch { int a; int b; }

struct node *log_request(struct node *log, int v) {
  struct node *entry = malloc(struct node);
  entry->v = v;
  entry->next = log;
  return entry;
}

int handle(int req) {
  struct scratch *s = malloc(struct scratch);
  s->a = req * 3;
  s->b = req + 1;
  int out = s->a + s->b;
  free(s);
  return out;
}

void main() {
  struct node *log = null;
  int i = 0;
  int acc = 0;
  while (i < 60) {
    acc = acc + handle(i);
    log = log_request(log, i);
    i = i + 1;
  }
  print(acc);
  struct node *cur = log;
  while (cur != null) {
    struct node *nxt = cur->next;
    free(cur);
    cur = nxt;
  }
}
|}

let workloads =
  [
    ("matrix", src_matrix);
    ("churn", src_churn);
    ("list", src_list);
    ("mixed", src_mixed);
  ]

(* Seeded-bug probes, run only under the static scheme: detection at
   non-Safe sites must survive elision. *)
let probe_uaf =
  {|
struct box { int v; struct box *pad; }

void main() {
  int acc = 0;
  int i = 0;
  while (i < 10) {
    struct box *tmp = malloc(struct box);
    tmp->v = i;
    acc = acc + tmp->v;
    free(tmp);
    i = i + 1;
  }
  struct box *victim = malloc(struct box);
  victim->v = acc;
  free(victim);
  print(victim->v);
}
|}

let probe_double_free =
  {|
struct box { int v; struct box *pad; }

void main() {
  struct box *victim = malloc(struct box);
  victim->v = 1;
  free(victim);
  free(victim);
}
|}

let probes = [ ("use-after-free", probe_uaf); ("double-free", probe_double_free) ]

type run_stats = {
  prints : int list option; (* None = stopped by a violation *)
  mremap : int;
  mprotect : int;
  total_syscalls : int;
  violations : (string * Minic.Ast.pos) list;
}

let run_under program scheme_of_machine =
  let machine = Vmm.Machine.create () in
  let scheme, finish = scheme_of_machine machine in
  let violations = ref [] in
  let hook ~fname ~pos (_ : Shadow.Report.t) =
    violations := (fname, pos) :: !violations
  in
  let prints =
    match Minic.Interp.run ~on_violation:hook program scheme with
    | o -> Some o.Minic.Interp.prints
    | exception Shadow.Report.Violation _ -> None
  in
  let s = Vmm.Stats.snapshot machine.Vmm.Machine.stats in
  finish ();
  {
    prints;
    mremap = s.Vmm.Stats.syscalls_mremap;
    mprotect = s.Vmm.Stats.syscalls_mprotect;
    total_syscalls = Vmm.Stats.total_syscalls s;
    violations = List.rev !violations;
  }

let full_scheme machine = (Runtime.Schemes.shadow_pool machine, fun () -> ())

let analyze_and_transform source =
  let program = Minic.Parser.parse source in
  let result = Minic.Dangling.analyze program in
  let transformed, _ = Minic.Pool_transform.transform program in
  (result, transformed)

let flagged (result : Minic.Dangling.result) (fname, pos) =
  List.exists
    (fun (fd : Minic.Dangling.finding) ->
      fd.Minic.Dangling.fname = fname
      && fd.Minic.Dangling.pos = pos
      && fd.Minic.Dangling.verdict <> Minic.Dangling.Safe)
    result.Minic.Dangling.findings

let run () =
  print_endline
    "\n== Static protection elision (Safe sites skip mremap/mprotect) ==";
  let rows =
    List.map
      (fun (name, source) ->
        let result, transformed = analyze_and_transform source in
        let stats_box = ref None in
        let static_scheme machine =
          let scheme =
            Runtime.Schemes.shadow_pool_static
              ~config:{ Runtime.Schemes.elide = Minic.Dangling.elide_policy result }
              machine
          in
          let finish () =
            match Runtime.Schemes.introspect scheme with
            | Runtime.Schemes.Shadow_pool_static { elision; _ } ->
              stats_box := Some (elision ())
            | _ -> assert false
          in
          (scheme, finish)
        in
        let full = run_under transformed full_scheme in
        let static = run_under transformed static_scheme in
        let es =
          match !stats_box with
          | Some s -> s
          | None -> assert false (* finish always runs *)
        in
        let sites = List.length result.Minic.Dangling.sites in
        let elidable =
          List.length
            (List.filter
               (fun (s : Minic.Dangling.site) ->
                 s.Minic.Dangling.verdict = Minic.Dangling.Safe)
               result.Minic.Dangling.sites)
        in
        let saved = full.total_syscalls - static.total_syscalls in
        let outputs_equal = full.prints = static.prints in
        Printf.printf
          "  %-8s sites %d/%d elidable; elided %d allocs, %d frees; \
           syscalls %d -> %d (saved %d, mremap %d -> %d, mprotect %d -> %d)%s\n"
          name elidable sites es.Runtime.Schemes.elided_allocs
          es.Runtime.Schemes.elided_frees full.total_syscalls
          static.total_syscalls saved full.mremap static.mremap full.mprotect
          static.mprotect
          (if outputs_equal then "" else "  OUTPUT MISMATCH");
        Gate.require outputs_equal
          "static_elision: elision changed %s's output" name;
        Gate.require
          (static.total_syscalls <= full.total_syscalls)
          "static_elision: elision increased syscalls on %s" name;
        J.Obj
          [
            ("name", J.String name);
            ("sites", J.Int sites);
            ("elidable_sites", J.Int elidable);
            ("elided_allocs", J.Int es.Runtime.Schemes.elided_allocs);
            ("elided_frees", J.Int es.Runtime.Schemes.elided_frees);
            ("protected_allocs", J.Int es.Runtime.Schemes.protected_allocs);
            ("full_mremap", J.Int full.mremap);
            ("full_mprotect", J.Int full.mprotect);
            ("full_syscalls", J.Int full.total_syscalls);
            ("static_mremap", J.Int static.mremap);
            ("static_mprotect", J.Int static.mprotect);
            ("static_syscalls", J.Int static.total_syscalls);
            ("saved_syscalls", J.Int saved);
            ("outputs_equal", J.Bool outputs_equal);
          ],
          es.Runtime.Schemes.elided_allocs > 0 && saved > 0)
      workloads
  in
  let elided = List.length (List.filter snd rows) in
  Gate.require (elided >= 2)
    "static_elision: saved syscalls on %d workloads (need >= 2)" elided;
  let probe_rows =
    List.map
      (fun (name, source) ->
        let result, transformed = analyze_and_transform source in
        let stats_box = ref None in
        let static_scheme machine =
          let scheme =
            Runtime.Schemes.shadow_pool_static
              ~config:{ Runtime.Schemes.elide = Minic.Dangling.elide_policy result }
              machine
          in
          let finish () =
            match Runtime.Schemes.introspect scheme with
            | Runtime.Schemes.Shadow_pool_static { elision; _ } ->
              stats_box := Some (elision ())
            | _ -> assert false
          in
          (scheme, finish)
        in
        let static = run_under transformed static_scheme in
        let detected = static.violations <> [] in
        let at_flagged_site =
          detected && List.for_all (flagged result) static.violations
        in
        let elided =
          match !stats_box with
          | Some s -> s.Runtime.Schemes.elided_allocs
          | None -> 0
        in
        Printf.printf "  probe %-16s detected=%b at-flagged-site=%b (%d elided)\n"
          name detected at_flagged_site elided;
        Gate.require detected
          "static_elision: probe %s not detected under elision" name;
        Gate.require
          ((not detected) || at_flagged_site)
          "static_elision: probe %s trapped at a site the analysis marked Safe"
          name;
        J.Obj
          [
            ("name", J.String name);
            ("detected", J.Bool detected);
            ("at_flagged_site", J.Bool at_flagged_site);
            ("elided_allocs", J.Int elided);
          ])
      probes
  in
  J.Obj
    [ ("rows", J.List (List.map fst rows)); ("probes", J.List probe_rows) ]
