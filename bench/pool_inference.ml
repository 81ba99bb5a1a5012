(* Static pool inference, measured end to end: each MiniC workload is
   analysed by Minic.Poolify (DSA-driven pool partitioning) and run
   twice under Runtime.Schemes.shadow_pool_inferred — once transformed,
   so every inferred pool is a separate shadow pool whose destroy
   bulk-unmaps its shadow VA, and once untransformed, so every object
   lands in the single global pool and no VA is ever released (the
   scheme has no recycler on purpose: live shadow VA tracks inferred
   lifetimes and nothing else).

   The row records the peak live shadow pages under both placements —
   the inferred peak must come in strictly lower on workloads with
   scoped lifetimes — plus syscall totals and pool create/destroy
   counts, with a differential check that both runs print the same
   values and that two independent analyses emit a byte-identical
   canonical pool map.

   The probes re-run seeded-bug programs both ways and assert the
   violation lists are identical: pool inference must not move, add or
   lose a detection.  [run] gates all of this. *)

module J = Telemetry.Json

(* Allocator churn with a per-call scratch object: the scratch class
   never escapes [handle], so its inferred pool is created and
   destroyed inside the call and the shadow VA of every iteration is
   returned immediately.  The global placement keeps all 200 scratch
   ranges mapped until exit. *)
let src_churn =
  {|
struct scratch { int a; int b; }

int handle(int req) {
  struct scratch *s = malloc(struct scratch);
  s->a = req * 3;
  s->b = req + 1;
  int out = s->a + s->b;
  free(s);
  return out;
}

void main() {
  int acc = 0;
  int i = 0;
  while (i < 200) {
    acc = acc + handle(i);
    i = i + 1;
  }
  print(acc);
}
|}

(* Server shape: a long-lived request log (its pool is main-owned and
   lives for the whole run) plus per-request scratch buffers (pool
   scoped to the handler).  Inferred peak ~ the log; global peak ~ the
   log plus every scratch object ever allocated. *)
let src_server =
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
  while (i < 120) {
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

(* Heap-carried list released before exit: one class, one main-owned
   pool — the conservative case where inference cannot beat the global
   placement (both peaks equal the full list).  Kept as the honesty
   row. *)
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

let workloads =
  [ ("churn", src_churn); ("server", src_server); ("list", src_list) ]

(* Seeded-bug probes: detection must be identical under the inferred
   and the global placement — same sites, same order. *)
let probe_uaf =
  {|
struct scratch { int a; int b; }

int handle(int req) {
  struct scratch *s = malloc(struct scratch);
  s->a = req * 3;
  s->b = req + 1;
  int out = s->a + s->b;
  free(s);
  return out;
}

void main() {
  int acc = 0;
  int i = 0;
  while (i < 10) {
    acc = acc + handle(i);
    i = i + 1;
  }
  struct scratch *victim = malloc(struct scratch);
  victim->a = acc;
  free(victim);
  print(victim->a);
}
|}

let probe_double_free =
  {|
struct scratch { int a; int b; }

void main() {
  struct scratch *victim = malloc(struct scratch);
  victim->a = 1;
  free(victim);
  free(victim);
}
|}

let probes =
  [ ("use-after-free", probe_uaf); ("double-free", probe_double_free) ]

let registry scheme =
  Vmm.Stats.registry scheme.Runtime.Scheme.machine.Vmm.Machine.stats

let inferred_count scheme name =
  Telemetry.Metrics.count (registry scheme) ("inferred." ^ name)

let peak_pages scheme =
  int_of_float
    (Telemetry.Metrics.gauge_value
       (Telemetry.Metrics.gauge (registry scheme) "inferred.peak_shadow_pages"))

let syscalls scheme =
  Vmm.Stats.snapshot scheme.Runtime.Scheme.machine.Vmm.Machine.stats

(* A run under a fresh inferred-pool scheme, paired with that scheme. *)
let run_inferred program =
  let scheme = Runtime.Schemes.shadow_pool_inferred (Vmm.Machine.create ()) in
  (Minic.Interp.run program scheme, scheme)

let detected_at program =
  match (fst (run_inferred program)).stopped with
  | Some { site; outcome = Detected _ } -> Some site
  | Some _ | None -> None

let canonical_map source =
  Telemetry.Json.to_string
    (Minic.Poolify.to_json (Minic.Poolify.analyze (Minic.Parser.parse source)))

let run () =
  print_endline
    "\n== Pool inference (inferred scoped pools vs one global pool) ==";
  let rows =
    List.map
      (fun (name, source) ->
        let program = Minic.Parser.parse source in
        let result = Minic.Poolify.analyze program in
        let transformed, _ = Minic.Pool_transform.transform program in
        let inferred_run, inferred = run_inferred transformed in
        let global_run, global = run_inferred program in
        let outputs_equal =
          inferred_run.prints = global_run.prints
          && inferred_run.stopped = None && global_run.stopped = None
        in
        let global_sys = syscalls global and inferred_sys = syscalls inferred in
        let global_total = Vmm.Stats.total_syscalls global_sys in
        let inferred_total = Vmm.Stats.total_syscalls inferred_sys in
        (* determinism gate: two independent analyses over the same
           source must serialise to the same canonical document *)
        let deterministic = canonical_map source = canonical_map source in
        let destroyable =
          List.length
            (List.filter
               (fun (p : Minic.Poolify.pool) -> p.destroyable)
               result.Minic.Poolify.pools)
        in
        let destroyed = inferred_count inferred "pools_destroyed" in
        let unmapped = inferred_count inferred "unmapped_pages" in
        Printf.printf
          "  %-8s pools %d (%d destroyable); peak shadow pages %d -> %d; \
           destroys %d released %d pages; syscalls %d -> %d (munmap %d -> %d)%s\n"
          name
          (List.length result.Minic.Poolify.pools)
          destroyable (peak_pages global) (peak_pages inferred) destroyed
          unmapped global_total inferred_total global_sys.syscalls_munmap
          inferred_sys.syscalls_munmap
          (if outputs_equal then "" else "  OUTPUT MISMATCH");
        Gate.require outputs_equal
          "pool_inference: inference changed %s's output" name;
        Gate.require deterministic
          "pool_inference: pool map for %s is not deterministic" name;
        Gate.require (result.Minic.Poolify.pools <> [])
          "pool_inference: found no pools on %s" name;
        (* scoped lifetimes: inferred pools must be destroyed, lowering
           peak shadow VA *)
        if name = "churn" || name = "server" then begin
          Gate.require
            (peak_pages inferred < peak_pages global)
            "pool_inference: inferred pools did not lower peak shadow VA on \
             %s (%d vs %d)"
            name (peak_pages inferred) (peak_pages global);
          Gate.require (destroyed > 0)
            "pool_inference: never destroyed a pool on %s" name;
          Gate.require (unmapped > 0)
            "pool_inference: pool destroys released no shadow pages on %s" name
        end;
        J.Obj
          [
            ("name", J.String name);
            ("pools", J.Int (List.length result.Minic.Poolify.pools));
            ("destroyable_pools", J.Int destroyable);
            ("sites", J.Int (List.length result.Minic.Poolify.sites));
            ("global_peak_pages", J.Int (peak_pages global));
            ("inferred_peak_pages", J.Int (peak_pages inferred));
            ("pools_created", J.Int (inferred_count inferred "pools_created"));
            ("pools_destroyed", J.Int destroyed);
            ("destroy_unmapped_pages", J.Int unmapped);
            ("global_syscalls", J.Int global_total);
            ("inferred_syscalls", J.Int inferred_total);
            ("global_munmap", J.Int global_sys.syscalls_munmap);
            ("inferred_munmap", J.Int inferred_sys.syscalls_munmap);
            ("outputs_equal", J.Bool outputs_equal);
            ("deterministic", J.Bool deterministic);
          ])
      workloads
  in
  let probe_rows =
    List.map
      (fun (name, source) ->
        let program = Minic.Parser.parse source in
        let transformed, _ = Minic.Pool_transform.transform program in
        let inferred = detected_at transformed and global = detected_at program in
        let detected = inferred <> None in
        let identical = inferred = global in
        Printf.printf "  probe %-16s detected=%b identical-to-global=%b\n" name
          detected identical;
        Gate.require detected
          "pool_inference: probe %s not detected under inferred pools" name;
        Gate.require identical
          "pool_inference: probe %s detections differ between inferred and \
           global pools"
          name;
        J.Obj
          [
            ("name", J.String name);
            ("detected", J.Bool detected);
            ("detections_identical", J.Bool identical);
          ])
      probes
  in
  J.Obj [ ("rows", J.List rows); ("probes", J.List probe_rows) ]
