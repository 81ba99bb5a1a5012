(* Epoch-batched deferred protection, measured head to head: the same
   allocator-driving workloads run under the eager shadow-pool scheme
   and under [Runtime.Schemes.shadow_pool_epoch], and the row records
   protection syscalls (mremap + mprotect + munmap) per heap operation
   for both, plus their ratio, gated in [run]: epoch must cut every
   workload's syscalls/op to at most a quarter of eager, and churn's to
   the design target of a tenth.

   A second table sweeps the epoch size on churn for EXPERIMENTS.md —
   syscalls/op and simulated throughput against max_frees — and a probe
   set proves the batching never costs a detection: a use inside the
   open epoch is caught by the software backstop, a use at the exact
   retirement boundary and a use after retirement both trap in the MMU.
   [missed_probes] must be 0. *)

module J = Telemetry.Json

let churn_site_alloc = "epoch_bench.c:10"
let churn_site_free = "epoch_bench.c:11"

(* The frontier workloads, shared with the tag_backend section.
   Same-size alloc/free pairs: the pathological case for eager
   protection (one mremap + one mprotect per pair) and the best case
   for slab reuse + coalesced retirement. *)
let churn (scheme : Runtime.Scheme.t) ~ops =
  for i = 1 to ops do
    let a = scheme.Runtime.Scheme.malloc ~site:churn_site_alloc 48 in
    scheme.Runtime.Scheme.store a ~width:8 i;
    ignore (scheme.Runtime.Scheme.load a ~width:8);
    scheme.Runtime.Scheme.free ~site:churn_site_free a
  done

(* A ring of live objects with two size classes: frees are delayed 32
   allocations, so quarantined and live objects interleave and the
   coalescer sees fragmented runs — the honest middle ground. *)
let mixed (scheme : Runtime.Scheme.t) ~ops =
  let ring = Array.make 32 None in
  for i = 0 to ops - 1 do
    let size = if i land 1 = 0 then 48 else 112 in
    let a = scheme.Runtime.Scheme.malloc ~site:"epoch_bench.c:20" size in
    scheme.Runtime.Scheme.store a ~width:8 i;
    (match ring.(i mod 32) with
     | Some old ->
       ignore (scheme.Runtime.Scheme.load old ~width:8);
       scheme.Runtime.Scheme.free ~site:"epoch_bench.c:21" old
     | None -> ());
    ring.(i mod 32) <- Some a
  done;
  Array.iter
    (function
      | Some a -> scheme.Runtime.Scheme.free ~site:"epoch_bench.c:22" a
      | None -> ())
    ring

let workloads = [ ("churn", churn); ("mixed", mixed) ]

type run_stats = {
  protection : int;
  heap_ops : int;
  per_op : float;
  cycles : float;
}

(* Run one workload on a fresh machine; [finish] drains pending epochs
   before the snapshot so the epoch scheme is charged for every protect
   it owes, not just the ones that happened to retire in-window. *)
let measure make_scheme workload ~ops =
  let machine = Vmm.Machine.create () in
  let scheme : Runtime.Scheme.t = make_scheme machine in
  workload scheme ~ops;
  (match Runtime.Schemes.introspect scheme with
   | Runtime.Schemes.Shadow_pool_epoch { drain; _ } -> drain ()
   | _ -> ());
  let s = Vmm.Stats.snapshot machine.Vmm.Machine.stats in
  let heap_ops = Vmm.Stats.heap_ops s in
  {
    protection = Vmm.Stats.protection_syscalls s;
    heap_ops;
    per_op = Option.value (Vmm.Stats.syscalls_per_op s) ~default:0.0;
    cycles = Vmm.Machine.cycles machine;
  }

let epoch_stats_of scheme =
  match Runtime.Schemes.introspect scheme with
  | Runtime.Schemes.Shadow_pool_epoch { epoch; _ } -> epoch ()
  | _ -> assert false

(* ---- probes: the quarantine window must never hide a dangling use ---- *)

type probe_outcome = { detected : bool; via : string }

let classify_detection ~backstop_before scheme =
  let es = epoch_stats_of scheme in
  if es.Runtime.Schemes.backstop_hits > backstop_before then "backstop"
  else "mmu"

(* Use inside the open epoch: the page is still read-write, so only the
   software backstop can see it. *)
let probe_in_window () =
  let machine = Vmm.Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool_epoch machine in
  let a = scheme.Runtime.Scheme.malloc ~site:"probe.c:1" 48 in
  scheme.Runtime.Scheme.store a ~width:8 7;
  scheme.Runtime.Scheme.free ~site:"probe.c:2" a;
  match scheme.Runtime.Scheme.load a ~width:8 with
  | _ -> { detected = false; via = "none" }
  | exception Shadow.Report.Violation _ ->
    { detected = true; via = classify_detection ~backstop_before:0 scheme }

(* Use at the exact retirement boundary: the free that fills the epoch
   triggers retirement, so by the time the probe runs the page is
   already PROT_NONE — the MMU path, not the backstop, must fire. *)
let probe_at_retirement () =
  let machine = Vmm.Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool_epoch
      ~config:{ Runtime.Schemes.max_frees = 4 } machine in
  let victims =
    List.init 4 (fun i ->
        let a =
          scheme.Runtime.Scheme.malloc ~site:(Printf.sprintf "probe.c:%d" i) 48
        in
        scheme.Runtime.Scheme.store a ~width:8 i;
        a)
  in
  List.iter (fun a -> scheme.Runtime.Scheme.free ~site:"probe.c:9" a) victims;
  let last = List.nth victims 3 in
  match scheme.Runtime.Scheme.load last ~width:8 with
  | _ -> { detected = false; via = "none" }
  | exception Shadow.Report.Violation _ ->
    { detected = true; via = classify_detection ~backstop_before:0 scheme }

(* Use after an explicit drain: indistinguishable from the eager
   scheme's post-free state. *)
let probe_post_retirement () =
  let machine = Vmm.Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool_epoch machine in
  let a = scheme.Runtime.Scheme.malloc ~site:"probe.c:1" 48 in
  scheme.Runtime.Scheme.store a ~width:8 7;
  scheme.Runtime.Scheme.free ~site:"probe.c:2" a;
  (match Runtime.Schemes.introspect scheme with
   | Runtime.Schemes.Shadow_pool_epoch { drain; _ } -> drain ()
   | _ -> assert false);
  match scheme.Runtime.Scheme.load a ~width:8 with
  | _ -> { detected = false; via = "none" }
  | exception Shadow.Report.Violation _ ->
    { detected = true; via = classify_detection ~backstop_before:0 scheme }

let probes =
  [
    ("in-window", probe_in_window, "backstop");
    ("at-retirement", probe_at_retirement, "mmu");
    ("post-retirement", probe_post_retirement, "mmu");
  ]

let run ~smoke () =
  print_endline
    "\n== Epoch batching (protection syscalls per heap op, eager vs epoch) ==";
  let ops = if smoke then 1_024 else 8_192 in
  let rows =
    List.map
      (fun (name, workload) ->
        let base =
          measure (fun m -> Runtime.Schemes.shadow_pool m) workload ~ops
        in
        let epoch_scheme = ref None in
        let epoch =
          measure
            (fun m ->
              let s = Runtime.Schemes.shadow_pool_epoch m in
              epoch_scheme := Some s;
              s)
            workload ~ops
        in
        let es =
          match !epoch_scheme with
          | Some s -> epoch_stats_of s
          | None -> assert false
        in
        let ratio =
          if base.per_op > 0.0 then epoch.per_op /. base.per_op else 1.0
        in
        Gate.require (ratio <= 0.25)
          "epoch_batching: %s saved too little (ratio %.3f > 0.25)" name ratio;
        Gate.require
          (name <> "churn" || ratio <= 0.1)
          "epoch_batching: churn is under 10x (ratio %.3f > 0.1)" ratio;
        Gate.require
          (es.Runtime.Schemes.epoch_failed_protects = 0)
          "epoch_batching: %s dropped a protection" name;
        Printf.printf
          "  %-6s ops %5d  syscalls/op %6.3f -> %6.3f  (%.1fx fewer; %d \
           epochs, %d coalesced protects, slab %d calls / %d hits)\n"
          name base.heap_ops base.per_op epoch.per_op
          (if epoch.per_op > 0.0 then base.per_op /. epoch.per_op else 0.0)
          es.Runtime.Schemes.epochs_retired es.Runtime.Schemes.coalesced_protects
          es.Runtime.Schemes.slab_calls es.Runtime.Schemes.slab_hits;
        J.Obj
          [
            ("workload", J.String name);
            ("heap_ops", J.Int base.heap_ops);
            ("base_protection_syscalls", J.Int base.protection);
            ("base_syscalls_per_op", J.Float base.per_op);
            ("epoch_protection_syscalls", J.Int epoch.protection);
            ("epoch_syscalls_per_op", J.Float epoch.per_op);
            ("ratio", J.Float ratio);
            ("epochs_retired", J.Int es.Runtime.Schemes.epochs_retired);
            ("coalesced_protects", J.Int es.Runtime.Schemes.coalesced_protects);
            ("split_retries", J.Int es.Runtime.Schemes.epoch_split_retries);
            ("failed_protects", J.Int es.Runtime.Schemes.epoch_failed_protects);
            ("slab_calls", J.Int es.Runtime.Schemes.slab_calls);
            ("slab_hits", J.Int es.Runtime.Schemes.slab_hits);
            ("backstop_hits", J.Int es.Runtime.Schemes.backstop_hits);
          ])
      workloads
  in
  (* Epoch-size sweep on churn: the EXPERIMENTS.md table. *)
  let sweep =
    List.map
      (fun max_frees ->
        let r =
          measure
            (fun m ->
              Runtime.Schemes.shadow_pool_epoch
                ~config:
                  { Runtime.Schemes.max_frees }
                m)
            churn ~ops
        in
        let throughput = float_of_int r.heap_ops /. (r.cycles /. 1e6) in
        Printf.printf
          "  max_frees %4d: syscalls/op %6.3f  throughput %8.1f ops/Mcycle\n"
          max_frees r.per_op throughput;
        J.Obj
          [
            ("max_frees", J.Int max_frees);
            ("syscalls_per_op", J.Float r.per_op);
            ("throughput_ops_per_mcycle", J.Float throughput);
          ])
      [ 8; 64; 256 ]
  in
  let outcomes =
    List.map (fun (name, probe, expect_via) -> (name, probe (), expect_via)) probes
  in
  let probe_rows =
    List.map
      (fun (name, o, expect_via) ->
        Printf.printf "  probe %-16s detected=%b via=%s (expected %s)\n" name
          o.detected o.via expect_via;
        Gate.require o.detected "epoch_batching: probe %s not detected" name;
        Gate.require
          ((not o.detected) || o.via = expect_via)
          "epoch_batching: probe %s detected via %s (expected %s)" name o.via
          expect_via;
        J.Obj
          [
            ("name", J.String name);
            ("detected", J.Bool o.detected);
            ("via", J.String o.via);
            ("expected_via", J.String expect_via);
          ])
      outcomes
  in
  let missed =
    List.length
      (List.filter
         (fun (_, o, expect_via) -> (not o.detected) || o.via <> expect_via)
         outcomes)
  in
  J.Obj
    [
      ("ops", J.Int ops);
      ("rows", J.List rows);
      ("sweep", J.List sweep);
      ("probes", J.List probe_rows);
      ("missed_probes", J.Int missed);
    ]
