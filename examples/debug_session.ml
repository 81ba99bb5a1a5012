(* debug_session: the binary-only debugging mode and the long-lived-pool
   escape hatches.

     dune exec examples/debug_session.exe

   Part 1 — §3's observation that without address-space reuse the scheme
   needs no compiler at all: wrap malloc/free of an existing binary
   (here: a workload that knows nothing about pools) and get full
   detection, Electric-Fence-style but without the physical blow-up.

   Part 2 — §3.4's strategies for long-lived pools, driving the
   interval-reuse and conservative-GC policies on an immortal global
   pool and watching address space stay bounded. *)

let part title = Printf.printf "\n==== %s ====\n" title

let () =
  part "1. binary-only mode: shadow_basic over an unmodified allocator";
  let m = Vmm.Machine.create () in
  let scheme = Runtime.Schemes.shadow_basic m in
  (* A "legacy binary": plain malloc/free calls, no pool structure. *)
  let nodes = Array.init 64 (fun i ->
      let p = scheme.Runtime.Scheme.malloc ~site:"legacy.c:load_config" 40 in
      Runtime.Workload_api.store_field scheme p 0 i;
      p)
  in
  Array.iteri
    (fun i p -> if i mod 2 = 0 then scheme.Runtime.Scheme.free ~site:"legacy.c:prune" p)
    nodes;
  (* The bug a debugger is hunting: iterating the array after pruning. *)
  let caught = ref 0 in
  Array.iter
    (fun p ->
      match scheme.Runtime.Scheme.load p ~width:8 with
      | _ -> ()
      | exception Shadow.Report.Violation r ->
        incr caught;
        if !caught = 1 then
          Printf.printf "first trap: %s\n" (Shadow.Report.to_string r))
    nodes;
  Printf.printf "caught %d stale reads out of 64 (32 were freed)\n" !caught;
  Printf.printf "physical frames: %d (Electric Fence would need ~64 + guards)\n"
    (Vmm.Frame_table.peak_frames m.Vmm.Machine.frames);
  Printf.printf "virtual pages consumed, never reused: %d (the debugging-mode cost)\n"
    (Vmm.Machine.va_bytes_used m / Vmm.Addr.page_size);

  part "2. long-lived pools: §3.4 mitigation strategies";
  Printf.printf
    "with no reuse at all, a 1M-allocs/s server exhausts 2^47 bytes in %.1f h\n"
    (Shadow.Exhaustion.paper_example_hours ());
  let run label strategy =
    let m = Vmm.Machine.create () in
    let scheme = Runtime.Schemes.shadow_pool m in
    let pool =
      match Runtime.Schemes.introspect scheme with
      | Runtime.Schemes.Shadow_pool { global; _ } -> global
      | _ -> assert false
    in
    let gc = Shadow.Gc.create ~roots:(Vmm.Roots.create ()) pool in
    let policy = Shadow.Reuse_policy.create ~gc strategy pool in
    for i = 1 to 3_000 do
      let a = scheme.Runtime.Scheme.malloc ~site:"immortal" 64 in
      Runtime.Workload_api.store_field scheme a 0 i;
      scheme.Runtime.Scheme.free ~site:"immortal-free" a;
      Shadow.Reuse_policy.after_free policy
    done;
    Printf.printf "  %-30s VA %9s, %4d pages reclaimed, %d gc runs\n" label
      (Harness.Table.fmt_bytes (Vmm.Machine.va_bytes_used m))
      (Shadow.Reuse_policy.reclaimed_pages policy)
      (Shadow.Reuse_policy.gc_runs policy)
  in
  print_endline "3000 allocations from an immortal (global) pool:";
  run "no mitigation" Shadow.Reuse_policy.Manual;
  run "interval reuse @ 256 pages"
    (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 256 });
  run "conservative GC @ 256 pages"
    (Shadow.Reuse_policy.Conservative_gc
       { trigger_pages = 256; scan_cost_per_object = 40 });
  print_endline
    "\n(interval reuse gives up the guarantee for reclaimed pages; the GC\n\
     variant first verifies no stale pointers remain, at scan cost)"
