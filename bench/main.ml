(* The benchmark harness: regenerates every table and study from the
   paper's evaluation section at full scale, then the per-subsystem
   sections (fast path, static elision, pool inference, epoch batching,
   tagging, farm, fleet report, soak).

   Output sections:
     1. Table 1  — utilities + servers, all five configurations
     2. Table 2  — comparison with the Valgrind-style checker
     3. Table 3  — allocation-intensive Olden benchmarks
     4. Sec 4.3  — address-space usage per server connection
     5. Sec 3.4  — exhaustion model and long-lived-pool policies
     6. Sec 5    — detection-guarantee matrix
     7. Ablations — design choices DESIGN.md calls out

   Besides the text report, the run writes BENCH_results.json (path
   overridable with --out): tables 1-3 row data, an our-approach
   cycles/syscalls/faults row per workload, and each section's figures.
   Every figure is simulated and every object's keys are sorted, so two
   runs at one scale write the same bytes; the simulator's own
   host-clock speed is measured by benchmark/, not here.  --smoke
   (scale divisor 16) keeps CI runs short; --scale-divisor N picks any
   other divisor.  Each section gates its own invariants (gate.ml);
   after writing the results file the run lists every failed gate and
   exits nonzero. *)

module J = Telemetry.Json

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s took %.1fs wall-clock]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ---- 1-3: the paper's tables ---- *)

let run_table1 ~scale_divisor () =
  section "Table 1: run-time overhead on Unix utilities and servers";
  print_endline
    "(cycles in millions; utilities = whole run, servers = mean response\n\
     per forked connection; Ratio1 = ours/LLVM-base, Ratio2 = ours/native)";
  timed "table 1" (fun () ->
      let rows = Harness.Table1.rows ~scale_divisor () in
      print_endline (Harness.Table1.render rows);
      rows)

let run_table2 ~scale_divisor () =
  section "Table 2: comparison with the Valgrind-class checker";
  let rows =
    timed "table 2" (fun () ->
        let rows = Harness.Table2.rows ~scale_divisor () in
        print_endline (Harness.Table2.render rows);
        rows)
  in
  print_endline
    "(the model charges a uniform DBT factor, so the per-program spread of\n\
     real memcheck [2.5x-25x] collapses to ~12x; the orders-of-magnitude\n\
     gap vs. our approach is the property under test)";
  rows

let run_table3 ~scale_divisor () =
  section "Table 3: allocation-intensive Olden benchmarks";
  timed "table 3" (fun () ->
      let rows = Harness.Table3.rows ~scale_divisor () in
      print_endline (Harness.Table3.render rows);
      rows)

(* Per-workload cost rows for BENCH_results.json: one our-approach run
   per workload harvesting the counters the tables summarize away. *)

let cost_row ~table ~workload ~scale ~cycles (stats : Vmm.Stats.snapshot) =
  J.Obj
    [
      ("table", J.Int table);
      ("workload", J.String workload);
      ("config", J.String (Harness.Experiment.config_label Harness.Experiment.ours));
      ("scale", J.Int scale);
      ("cycles", J.Float cycles);
      ("syscalls", J.Int (Vmm.Stats.total_syscalls stats));
      ("faults", J.Int stats.Vmm.Stats.faults);
    ]

let cost_rows ~scale_divisor () =
  let batch_row table (b : Workload.Spec.batch) =
    let scale = max 1 (b.Workload.Spec.default_scale / scale_divisor) in
    let r = Harness.Experiment.run_batch ~scale b Harness.Experiment.ours in
    cost_row ~table ~workload:b.Workload.Spec.name ~scale
      ~cycles:r.Harness.Experiment.cycles r.Harness.Experiment.stats
  in
  let server_row (s : Workload.Spec.server) =
    let connections =
      max 2 (s.Workload.Spec.s_default_connections / scale_divisor)
    in
    let r =
      Harness.Experiment.run_server ~connections s Harness.Experiment.ours
    in
    cost_row ~table:1 ~workload:s.Workload.Spec.s_name ~scale:connections
      ~cycles:r.Runtime.Process.total_cycles r.Runtime.Process.total_stats
  in
  timed "cost rows" (fun () ->
      List.map (batch_row 1) Workload.Catalog.utilities
      @ List.map server_row Workload.Catalog.servers
      @ List.map (batch_row 3) Workload.Catalog.olden)

(* ---- 4: section 4.3 ---- *)

let run_addr_space () =
  section "Section 4.3: address-space usage per server connection";
  timed "4.3 study" (fun () ->
      print_endline (Harness.Addr_space.render (Harness.Addr_space.rows ())));
  Printf.printf
    "paper: ghttpd ~0 wasted pages/connection, ftpd 5-6 pages/command\n\
     (= %d commands here), telnetd 45 pages/session.\n"
    Workload.Servers.ftpd_commands_per_connection

(* ---- 4b: response-time distribution ---- *)

let run_latency () =
  section "Server response-time distribution (heavy-tailed requests)";
  timed "latency study" (fun () ->
      print_endline (Harness.Latency.render (Harness.Latency.study ())));
  print_endline
    "(the scheme's per-connection cost is a constant few syscalls, so the\n\
     overhead shrinks toward the tail: production p99 latency is barely\n\
     affected — the server-friendliness argument in distribution form)"

(* ---- 5: section 3.4 ---- *)

let run_exhaustion () =
  section "Section 3.4: virtual-address exhaustion and long-lived pools";
  Printf.printf
    "analytic model: 2^47 VA bytes / (4K page x 1M allocs/s) = %.2f hours\n\
     (the paper's 'at least 9 hours before running out')\n\n"
    (Shadow.Exhaustion.paper_example_hours ());
  let run_policy strategy =
    let m = Vmm.Machine.create () in
    let scheme = Runtime.Schemes.shadow_pool m in
    let pool =
      match Runtime.Schemes.introspect scheme with
      | Runtime.Schemes.Shadow_pool { global; _ } -> global
      | _ -> assert false
    in
    let gc = Shadow.Gc.create ~roots:(Vmm.Roots.create ()) pool in
    let policy = Shadow.Reuse_policy.create ~gc strategy pool in
    for i = 1 to 2_000 do
      let a = scheme.Runtime.Scheme.malloc ~site:"request" 64 in
      Runtime.Workload_api.store_field scheme a 0 i;
      scheme.Runtime.Scheme.free ~site:"done" a;
      Shadow.Reuse_policy.after_free policy
    done;
    Printf.printf "%-28s VA used: %9s   reclaimed: %5d pages   gc runs: %d\n"
      (Shadow.Reuse_policy.strategy_label strategy)
      (Harness.Table.fmt_bytes (Vmm.Machine.va_bytes_used m))
      (Shadow.Reuse_policy.reclaimed_pages policy)
      (Shadow.Reuse_policy.gc_runs policy)
  in
  print_endline "2000 allocations from an immortal global pool:";
  run_policy Shadow.Reuse_policy.Manual;
  run_policy (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 128 });
  run_policy
    (Shadow.Reuse_policy.Conservative_gc
       { trigger_pages = 128; scan_cost_per_object = 40 })

(* ---- 6: detection matrix ---- *)

let run_detection () =
  section "Detection-guarantee matrix (injected temporal errors)";
  let cells = timed "matrix" (fun () -> Harness.Detection_matrix.run ()) in
  print_endline (Harness.Detection_matrix.render cells);
  let guaranteed =
    Harness.Detection_matrix.guaranteed_configs cells
    |> List.map Harness.Experiment.config_label
    |> String.concat ", "
  in
  Printf.printf "schemes detecting every scenario: %s\n" guaranteed;
  print_endline "";
  print_endline
    "spatial scenarios (buffer overflow) — future-work combination:";
  print_endline
    (Harness.Detection_matrix.render (Harness.Detection_matrix.run_spatial ()))

(* ---- 6b: resilience campaign ---- *)

let run_resilience ~scale_divisor () =
  section "Resilience: syscall fault injection vs. the governed runtime";
  let rows =
    timed "resilience" (fun () ->
        Harness.Resilience.campaign ~scale_divisor ())
  in
  print_string (Harness.Resilience.render rows);
  Gate.require (Harness.Resilience.ok rows)
    "resilience: undiagnosed crash or unattributed detection miss (see the \
     rows above)";
  rows

(* ---- 7: ablations ---- *)

(* 7a. Shadow-VA reuse (our extension of the paper's free list to shadow
   placement): VA footprint of a pool-churning workload with and without
   it. *)
let ablation_shadow_va_reuse () =
  print_endline "-- shadow-page VA reuse (bh, fresh tree pool per step) --";
  let run reuse =
    let m = Vmm.Machine.create () in
    let scheme = Runtime.Schemes.shadow_pool ~config:{ Runtime.Schemes.reuse_shadow_va = reuse } m in
    (match Workload.Catalog.find_batch "bh" with
     | Some b -> b.Workload.Spec.run scheme ~scale:100
     | None -> failwith "bh missing");
    Vmm.Machine.va_bytes_used m
  in
  Printf.printf "  reuse on : %9s of address space\n"
    (Harness.Table.fmt_bytes (run true));
  Printf.printf "  reuse off: %9s of address space\n"
    (Harness.Table.fmt_bytes (run false))

(* 7b. Pool page reclamation policy: recycle vs munmap vs leak. *)
let ablation_reclaim_policy () =
  print_endline "-- pool page reclamation (200 pool generations) --";
  let run name reclaim_of =
    let m = Vmm.Machine.create () in
    let recycler = Apa.Page_recycler.create () in
    for _ = 1 to 200 do
      let pool =
        Apa.Pool.create ~arena_pages:4 ~reclaim:(reclaim_of recycler) m
      in
      for i = 1 to 25 do
        let a = Apa.Pool.alloc pool 48 in
        Vmm.Mmu.store m a ~width:8 i
      done;
      Apa.Pool.destroy pool
    done;
    let s = Vmm.Stats.snapshot m.Vmm.Machine.stats in
    Printf.printf "  %-8s VA %9s  syscalls %5d  cycles %sM\n" name
      (Harness.Table.fmt_bytes (Vmm.Machine.va_bytes_used m))
      (Vmm.Stats.total_syscalls s)
      (Harness.Table.fmt_cycles (Vmm.Machine.cycles m))
  in
  run "recycle" (fun r -> Apa.Pool.Recycle r);
  run "munmap" (fun _ -> Apa.Pool.Unmap);
  run "leak" (fun _ -> Apa.Pool.Leak)

(* 7c. TLB size: the second overhead source of the paper. *)
let ablation_tlb_size () =
  print_endline "-- TLB size sweep (em3d under our approach) --";
  List.iter
    (fun entries ->
      let m = Vmm.Machine.create ~tlb_entries:entries () in
      let scheme = Runtime.Schemes.shadow_pool m in
      (match Workload.Catalog.find_batch "em3d" with
       | Some b -> b.Workload.Spec.run scheme ~scale:300
       | None -> failwith "em3d missing");
      let s = Vmm.Stats.snapshot m.Vmm.Machine.stats in
      Printf.printf "  %4d entries: %sM cycles, %7d TLB misses\n" entries
        (Harness.Table.fmt_cycles (Vmm.Machine.cycles m))
        s.Vmm.Stats.tlb_misses)
    [ 16; 64; 256; 1024 ]

(* 7d'. The paper's future work: "simple OS and architectural
   enhancements" to cut the syscall cost of allocation/deallocation.
   Sweep the kernel-entry cost on the worst-case Olden benchmark. *)
let ablation_syscall_cost () =
  print_endline
    "-- future-work OS enhancement: cheaper aliasing syscalls (health) --";
  let b =
    match Workload.Catalog.find_batch "health" with
    | Some b -> b
    | None -> failwith "health missing"
  in
  let base =
    (Harness.Experiment.run_batch ~scale:20 b Harness.Experiment.llvm_base)
      .Harness.Experiment.cycles
  in
  List.iter
    (fun syscall_cost ->
      let machine =
        Vmm.Machine.create
          ~cost:{ Vmm.Cost_model.llvm_base with Vmm.Cost_model.syscall_cost }
          ()
      in
      let scheme = Runtime.Schemes.shadow_pool machine in
      b.Workload.Spec.run scheme ~scale:20;
      Printf.printf "  syscall = %4.0f cycles: slowdown %.2fx\n" syscall_cost
        (Vmm.Machine.cycles machine /. base))
    [ 2500.; 1000.; 250.; 50. ]

(* 7d. Cache behaviour: the paper's claim that the scheme keeps the
   physical layout (and therefore physically-indexed cache behaviour)
   of the original program, while Electric Fence destroys it. *)
let ablation_cache_behaviour () =
  print_endline "-- physically-indexed cache (enscript trace) --";
  let b =
    match Workload.Catalog.find_batch "enscript" with
    | Some b -> b
    | None -> failwith "enscript missing"
  in
  List.iter
    (fun config ->
      let r = Harness.Experiment.run_batch ~scale:200 b config in
      let s = r.Harness.Experiment.stats in
      let accesses = s.Vmm.Stats.loads + s.Vmm.Stats.stores in
      Printf.printf "  %-16s cache misses %6d (%.2f%% of %d accesses)\n"
        (Harness.Experiment.config_label config)
        s.Vmm.Stats.cache_misses
        (100. *. float_of_int s.Vmm.Stats.cache_misses
         /. float_of_int (max 1 accesses))
        accesses)
    [
      Harness.Experiment.native; Harness.Experiment.ours;
      Harness.Experiment.efence;
    ]

(* 7e. Allocator-agnosticism: identical detection over two allocators. *)
let ablation_allocator_agnostic () =
  print_endline "-- shadow wrapper over two unrelated allocators --";
  let run name (allocator : Vmm.Machine.t -> Heap.Allocator_intf.t) =
    let m = Vmm.Machine.create () in
    let registry = Shadow.Object_registry.create () in
    let heap = Shadow.Shadow_heap.create ~registry ~allocator:(allocator m) m in
    let p = Shadow.Shadow_heap.malloc heap 64 in
    Shadow.Shadow_heap.free heap p;
    let detected =
      match
        Shadow.Detector.guard registry ~in_free:false (fun () ->
            Vmm.Mmu.load m p ~width:8)
      with
      | _ -> false
      | exception Shadow.Report.Violation _ -> true
    in
    Printf.printf "  %-16s dangling use detected: %b\n" name detected
  in
  run "freelist-malloc" (fun m ->
      Heap.Freelist_malloc.as_allocator (Heap.Freelist_malloc.create m));
  run "bump-alloc" (fun m -> Heap.Bump_alloc.as_allocator (Heap.Bump_alloc.create m))

let run_ablations () =
  section "Ablations";
  timed "ablations" (fun () ->
      ablation_shadow_va_reuse ();
      ablation_reclaim_policy ();
      ablation_tlb_size ();
      ablation_syscall_cost ();
      ablation_cache_behaviour ();
      ablation_allocator_agnostic ())

(* ---- JSON results file ---- *)

let rec sort_keys = function
  | J.Obj kvs ->
    J.Obj
      (List.map (fun (k, v) -> (k, sort_keys v)) kvs
      |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b))
  | J.List l -> J.List (List.map sort_keys l)
  | v -> v

let write_results ~out ~scale_divisor ~smoke ~tables ~costs ~fastpath
    ~static_elision ~pool_inference ~epoch_batching ~tag_backend ~resilience
    ~farm ~fleet ~soak =
  let doc =
    J.Obj
      [
        ("schema", J.Int 1);
        ("scale_divisor", J.Int scale_divisor);
        ("smoke", J.Bool smoke);
        ("tables", J.Obj tables);
        ("cost_rows", J.List costs);
        ("fastpath", fastpath);
        ("static_elision", static_elision);
        ("pool_inference", pool_inference);
        ("epoch_batching", epoch_batching);
        ("tag_backend", tag_backend);
        ("resilience", resilience);
        ("farm", farm);
        ("fleet_report", fleet);
        ("soak", soak);
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (J.to_string_pretty (sort_keys doc));
      Out_channel.output_char oc '\n');
  Printf.printf "\nwrote %s\n" out

let () =
  let smoke = ref false in
  let divisor = ref 0 in
  let out = ref "BENCH_results.json" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " quick run: scale divisor 16");
      ( "--scale-divisor",
        Arg.Set_int divisor,
        "N divide workload scales by N (default 1)" );
      ( "--out",
        Arg.Set_string out,
        "FILE results file (default BENCH_results.json)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--smoke] [--scale-divisor N] [--out FILE]";
  if !divisor < 0 then (
    prerr_endline "bench: --scale-divisor must be positive";
    exit 2);
  let scale_divisor =
    if !divisor > 0 then !divisor else if !smoke then 16 else 1
  in
  print_endline
    "Reproduction harness: 'Efficiently Detecting All Dangling Pointer Uses\n\
     in Production Servers' (Dhurjati & Adve, DSN 2006)";
  if scale_divisor > 1 then
    Printf.printf "(workload scales divided by %d)\n" scale_divisor;
  let t1 = run_table1 ~scale_divisor () in
  let t2 = run_table2 ~scale_divisor () in
  let t3 = run_table3 ~scale_divisor () in
  let costs = cost_rows ~scale_divisor () in
  run_addr_space ();
  run_latency ();
  run_exhaustion ();
  run_detection ();
  let resilience = run_resilience ~scale_divisor () in
  run_ablations ();
  let fastpath = Fastpath.run () in
  let static_elision = Static_elision.run () in
  let pool_inference = Pool_inference.run () in
  let epoch_batching = Epoch_batching.run ~smoke:!smoke () in
  let tag_backend = Tag_backend.run ~smoke:!smoke () in
  let farm = Farm.run ~smoke:!smoke () in
  let fleet = Fleet_report.run ~smoke:!smoke () in
  let soak = Soak.run ~smoke:!smoke () in
  write_results ~out:!out ~scale_divisor ~smoke:!smoke
    ~tables:
      [
        ("table1", Harness.Table1.to_json t1);
        ("table2", Harness.Table2.to_json t2);
        ("table3", Harness.Table3.to_json t3);
      ]
    ~costs ~fastpath ~static_elision ~pool_inference
    ~epoch_batching ~tag_backend
    ~resilience:(Harness.Resilience.to_json resilience)
    ~farm ~fleet ~soak;
  match Gate.failures () with
  | [] -> print_endline "\nAll sections complete."
  | failures ->
    Printf.eprintf "\nbench: %d invariant(s) failed:\n" (List.length failures);
    List.iter (Printf.eprintf "  %s\n") failures;
    exit 1
