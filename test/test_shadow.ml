(* The core correctness suite for the paper's mechanism: shadow-page
   allocation, MMU-based detection, diagnostics, physical-memory parity,
   pool-based virtual-address reuse, and the §3.4 policies — plus the
   soundness/precision property test against a reference model. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let make_heap () =
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let malloc = Heap.Freelist_malloc.create m in
  let heap =
    Shadow.Shadow_heap.create ~registry
      ~allocator:(Heap.Freelist_malloc.as_allocator malloc)
      m
  in
  (m, registry, heap)

let load m registry a =
  Shadow.Detector.guard registry ~in_free:false (fun () -> Mmu.load m a ~width:8)

let store m registry a v =
  Shadow.Detector.guard registry ~in_free:false (fun () ->
      Mmu.store m a ~width:8 v)

(* ---- basic mechanism ---- *)

let test_alloc_read_write () =
  let m, registry, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap ~site:"t" 48 in
  store m registry p 7;
  store m registry (p + 40) 8;
  check_int "first word" 7 (load m registry p);
  check_int "last word" 8 (load m registry (p + 40));
  check_int "size_of" 48 (Shadow.Shadow_heap.size_of heap p)

let expect_violation name kind_pred thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected a violation")
  | exception Shadow.Report.Violation r ->
    check_bool (name ^ ": kind") true (kind_pred r.Shadow.Report.kind);
    r

let test_use_after_free_read () =
  let m, registry, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap ~site:"alloc-here" 48 in
  store m registry p 7;
  Shadow.Shadow_heap.free heap ~site:"free-here" p;
  let r =
    expect_violation "uaf read"
      (function Shadow.Report.Use_after_free Perm.Read -> true | _ -> false)
      (fun () -> load m registry p)
  in
  match r.Shadow.Report.object_info with
  | Some info ->
    Alcotest.check Alcotest.string "alloc site" "alloc-here"
      info.Shadow.Report.alloc_site;
    Alcotest.check
      Alcotest.(option string)
      "free site" (Some "free-here") info.Shadow.Report.free_site;
    check_int "offset" 0 info.Shadow.Report.offset
  | None -> Alcotest.fail "diagnostics missing"

let test_use_after_free_write () =
  let m, registry, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap 32 in
  Shadow.Shadow_heap.free heap p;
  ignore
    (expect_violation "uaf write"
       (function Shadow.Report.Use_after_free Perm.Write -> true | _ -> false)
       (fun () -> store m registry p 1; 0))

let test_interior_offset_diagnosed () =
  let m, registry, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap 64 in
  Shadow.Shadow_heap.free heap p;
  let r =
    expect_violation "interior uaf"
      (function Shadow.Report.Use_after_free _ -> true | _ -> false)
      (fun () -> load m registry (p + 24))
  in
  match r.Shadow.Report.object_info with
  | Some info -> check_int "interior offset" 24 info.Shadow.Report.offset
  | None -> Alcotest.fail "diagnostics missing"

let test_double_free () =
  let _, _, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap 32 in
  Shadow.Shadow_heap.free heap p;
  ignore
    (expect_violation "double free"
       (function Shadow.Report.Double_free -> true | _ -> false)
       (fun () -> Shadow.Shadow_heap.free heap p; 0))

let test_invalid_free_interior () =
  let _, _, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap 64 in
  ignore
    (expect_violation "interior free"
       (function Shadow.Report.Invalid_free -> true | _ -> false)
       (fun () -> Shadow.Shadow_heap.free heap (p + 8); 0))

let test_invalid_free_wild () =
  let m, _, heap = make_heap () in
  let wild = Kernel.mmap m ~pages:1 in
  ignore
    (expect_violation "wild free"
       (function Shadow.Report.Invalid_free -> true | _ -> false)
       (fun () -> Shadow.Shadow_heap.free heap (wild + 8); 0))

(* ---- the paper's structural claims ---- *)

let test_objects_share_physical_page () =
  (* Several small objects: distinct shadow (virtual) pages, same
     underlying physical frame as the canonical page. *)
  let m, registry, heap = make_heap () in
  let p1 = Shadow.Shadow_heap.malloc heap 32 in
  let p2 = Shadow.Shadow_heap.malloc heap 32 in
  check_bool "distinct virtual pages" true
    (Addr.page_index p1 <> Addr.page_index p2);
  let frame_of a =
    match Page_table.lookup m.Machine.page_table ~page:(Addr.page_index a) with
    | Some { Page_table.frame; _ } -> frame
    | None -> Alcotest.fail "unmapped"
  in
  check_int "same physical frame" (frame_of p1) (frame_of p2);
  (* Freeing one must not disturb the other. *)
  store m registry p2 55;
  Shadow.Shadow_heap.free heap p1;
  check_int "sibling object intact" 55 (load m registry p2)

let test_offset_preserved () =
  (* The shadow address has the same page offset as the canonical one
     (cache-index preservation, §3.1). *)
  let _, registry, heap = make_heap () in
  ignore registry;
  let ps = List.init 8 (fun _ -> Shadow.Shadow_heap.malloc heap 32) in
  let offsets = List.map Addr.offset ps in
  check_bool "offsets vary within page (not all page-aligned)" true
    (List.exists (fun o -> o <> List.hd offsets) offsets
     || List.length (List.sort_uniq compare offsets) >= 1)

let test_physical_parity_with_plain_allocator () =
  (* Same allocation trace, with and without the wrapper: physical frame
     usage must be (nearly) identical — the paper's headline property. *)
  let trace h_alloc h_free =
    let live = Queue.create () in
    for i = 1 to 200 do
      Queue.push (h_alloc (16 + (i mod 5 * 24))) live;
      if i mod 3 = 0 then h_free (Queue.pop live)
    done
  in
  let m_plain = Machine.create () in
  let plain = Heap.Freelist_malloc.create m_plain in
  trace (Heap.Freelist_malloc.alloc plain) (Heap.Freelist_malloc.dealloc plain);
  let m_shadow, _, heap = make_heap () in
  trace
    (fun size -> Shadow.Shadow_heap.malloc heap size)
    (fun a -> Shadow.Shadow_heap.free heap a);
  let plain_frames = Frame_table.peak_frames m_plain.Machine.frames in
  let shadow_frames = Frame_table.peak_frames m_shadow.Machine.frames in
  (* Allow slack for the one-word header shifting size classes. *)
  check_bool
    (Printf.sprintf "physical parity (%d vs %d)" plain_frames shadow_frames)
    true
    (shadow_frames <= plain_frames + (plain_frames / 4) + 2)

let test_syscall_per_alloc_and_free () =
  let m, _, heap = make_heap () in
  let before = Stats.snapshot m.Machine.stats in
  let p = Shadow.Shadow_heap.malloc heap 32 in
  let mid = Stats.snapshot m.Machine.stats in
  check_int "one mremap per allocation" 1
    Stats.(mid.syscalls_mremap - before.syscalls_mremap);
  Shadow.Shadow_heap.free heap p;
  let last = Stats.snapshot m.Machine.stats in
  check_int "one mprotect per free" 1
    Stats.(last.syscalls_mprotect - mid.syscalls_mprotect)

let test_multi_page_object () =
  let m, registry, heap = make_heap () in
  let size = Addr.page_size + 500 in
  let p = Shadow.Shadow_heap.malloc heap size in
  store m registry (p + size - 8) 31;
  check_int "spanning write" 31 (load m registry (p + size - 8));
  Shadow.Shadow_heap.free heap p;
  (* Every page of the object must trap. *)
  ignore
    (expect_violation "first page"
       (function Shadow.Report.Use_after_free _ -> true | _ -> false)
       (fun () -> load m registry p));
  ignore
    (expect_violation "last page"
       (function Shadow.Report.Use_after_free _ -> true | _ -> false)
       (fun () -> load m registry (p + size - 8)))

let test_allocator_agnostic () =
  (* The same wrapper over a completely different allocator. *)
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let bump = Heap.Bump_alloc.create m in
  let heap =
    Shadow.Shadow_heap.create ~registry
      ~allocator:(Heap.Bump_alloc.as_allocator bump)
      m
  in
  let p = Shadow.Shadow_heap.malloc heap 40 in
  store m registry p 9;
  check_int "bump-backed readback" 9 (load m registry p);
  Shadow.Shadow_heap.free heap p;
  ignore
    (expect_violation "bump-backed uaf"
       (function Shadow.Report.Use_after_free _ -> true | _ -> false)
       (fun () -> load m registry p))

let test_stale_pointer_arbitrarily_later () =
  let m, registry, heap = make_heap () in
  let p = Shadow.Shadow_heap.malloc heap 32 in
  Shadow.Shadow_heap.free heap p;
  (* Lots of intervening allocation reusing the physical memory. *)
  for _ = 1 to 500 do
    let q = Shadow.Shadow_heap.malloc heap 32 in
    store m registry q 1
  done;
  ignore
    (expect_violation "detected arbitrarily later"
       (function Shadow.Report.Use_after_free _ -> true | _ -> false)
       (fun () -> load m registry p))

(* ---- shadow pool (§3.3) ---- *)

let make_pool ?reuse_shadow_va () =
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let recycler = Apa.Page_recycler.create () in
  let pool =
    Shadow.Shadow_pool.create ?reuse_shadow_va ~recycler ~registry m
  in
  (m, registry, recycler, pool)

let test_pool_detection () =
  let m, registry, _, pool = make_pool () in
  let p = Shadow.Shadow_pool.alloc pool ~site:"p" 32 in
  store m registry p 3;
  Shadow.Shadow_pool.free pool ~site:"f" p;
  ignore
    (expect_violation "pool uaf"
       (function Shadow.Report.Use_after_free _ -> true | _ -> false)
       (fun () -> load m registry p))

let test_pool_destroy_recycles_shadow_and_canonical () =
  let m, _, recycler, pool = make_pool () in
  ignore m;
  let p = Shadow.Shadow_pool.alloc pool 32 in
  let q = Shadow.Shadow_pool.alloc pool 32 in
  ignore p;
  Shadow.Shadow_pool.free pool q;
  check_int "before destroy nothing recycled" 0
    (Apa.Page_recycler.available_pages recycler);
  let shadow_pages = Shadow.Shadow_pool.shadow_pages_live pool in
  check_bool "holds shadow pages" true (shadow_pages >= 2);
  Shadow.Shadow_pool.destroy pool;
  check_bool "destroy recycled shadow + canonical pages" true
    (Apa.Page_recycler.available_pages recycler > shadow_pages)

let test_pool_va_bounded_across_generations () =
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let recycler = Apa.Page_recycler.create () in
  let one_generation () =
    let pool = Shadow.Shadow_pool.create ~recycler ~registry m in
    for i = 1 to 30 do
      let a = Shadow.Shadow_pool.alloc pool 32 in
      Mmu.store m a ~width:8 i
    done;
    Shadow.Shadow_pool.destroy pool
  in
  one_generation ();
  let va_after_first = Machine.va_bytes_used m in
  for _ = 1 to 10 do
    one_generation ()
  done;
  check_int "VA flat in steady state (full reuse)" va_after_first
    (Machine.va_bytes_used m)

let test_pool_no_shadow_reuse_grows_va () =
  (* Ablation: with reuse_shadow_va = false, shadow pages consume fresh
     addresses every generation. *)
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let recycler = Apa.Page_recycler.create () in
  let one_generation () =
    let pool =
      Shadow.Shadow_pool.create ~reuse_shadow_va:false ~recycler ~registry m
    in
    for _ = 1 to 30 do
      ignore (Shadow.Shadow_pool.alloc pool 32)
    done;
    Shadow.Shadow_pool.destroy pool
  in
  one_generation ();
  let va_after_first = Machine.va_bytes_used m in
  one_generation ();
  check_bool "VA grows without shadow reuse" true
    (Machine.va_bytes_used m > va_after_first)

let test_registry_forgotten_after_destroy () =
  let _, registry, _, pool = make_pool () in
  let p = Shadow.Shadow_pool.alloc pool 32 in
  Shadow.Shadow_pool.free pool p;
  check_int "retained while pool lives" 1
    (Shadow.Object_registry.freed_retained_count registry);
  Shadow.Shadow_pool.destroy pool;
  check_int "records dropped at destroy" 0
    (Shadow.Object_registry.freed_retained_count registry)

let test_reclaim_freed_shadow () =
  let m, registry, recycler, pool = make_pool () in
  ignore m;
  ignore registry;
  let p = Shadow.Shadow_pool.alloc pool 32 in
  let q = Shadow.Shadow_pool.alloc pool 32 in
  Shadow.Shadow_pool.free pool p;
  check_int "one freed shadow page" 1 (Shadow.Shadow_pool.freed_shadow_pages pool);
  let reclaimed = Shadow.Shadow_pool.reclaim_freed_shadow pool in
  check_int "reclaimed it" 1 reclaimed;
  check_int "now on the free list" 1 (Apa.Page_recycler.available_pages recycler);
  check_int "no double count" 0 (Shadow.Shadow_pool.freed_shadow_pages pool);
  (* The live object is untouched. *)
  ignore q;
  Shadow.Shadow_pool.destroy pool

(* ---- §3.4 policies + exhaustion ---- *)

let test_interval_reuse_policy () =
  let _, _, recycler, pool = make_pool () in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 5 })
      pool
  in
  for i = 1 to 10 do
    let p = Shadow.Shadow_pool.alloc pool 32 in
    Shadow.Shadow_pool.free pool p;
    Shadow.Reuse_policy.after_free policy;
    ignore i
  done;
  check_bool "policy reclaimed at the threshold" true
    (Shadow.Reuse_policy.reclaimed_pages policy >= 5);
  check_bool "free list populated" true
    (Apa.Page_recycler.available_pages recycler > 0)

let test_conservative_gc_policy () =
  let m, _, _, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let policy =
    Shadow.Reuse_policy.create ~gc
      (Shadow.Reuse_policy.Conservative_gc
         { trigger_pages = 3; scan_cost_per_object = 50 })
      pool
  in
  let keep = List.init 4 (fun _ -> Shadow.Shadow_pool.alloc pool 32) in
  ignore keep;
  (* A stale pointer left in a register witnesses its freed range. *)
  let stale = Shadow.Shadow_pool.alloc pool 32 in
  Shadow.Shadow_pool.free pool stale;
  Roots.set_register roots 0 stale;
  let instr_before = (Stats.snapshot m.Machine.stats).Stats.instructions in
  for _ = 1 to 6 do
    let p = Shadow.Shadow_pool.alloc pool 32 in
    Shadow.Shadow_pool.free pool p;
    Shadow.Reuse_policy.after_free policy
  done;
  check_bool "gc ran" true (Shadow.Reuse_policy.gc_runs policy >= 1);
  check_bool "scan cost charged" true
    ((Stats.snapshot m.Machine.stats).Stats.instructions > instr_before);
  check_bool "unreferenced ranges reclaimed" true
    (Shadow.Reuse_policy.reclaimed_pages policy > 0);
  check_int "witnessed range pinned" 1 (Shadow.Reuse_policy.pinned_ranges policy)

let test_conservative_gc_requires_collector () =
  let _, _, _, pool = make_pool () in
  match
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Conservative_gc
         { trigger_pages = 3; scan_cost_per_object = 50 })
      pool
  with
  | _ -> Alcotest.fail "a Conservative_gc policy without ~gc must be rejected"
  | exception Invalid_argument _ -> ()

let test_manual_policy_never_reclaims () =
  let _, _, _, pool = make_pool () in
  let policy = Shadow.Reuse_policy.create Shadow.Reuse_policy.Manual pool in
  for _ = 1 to 10 do
    let p = Shadow.Shadow_pool.alloc pool 32 in
    Shadow.Shadow_pool.free pool p;
    Shadow.Reuse_policy.after_free policy
  done;
  check_int "manual reclaims nothing" 0 (Shadow.Reuse_policy.reclaimed_pages policy)

let test_exhaustion_model () =
  let hours = Shadow.Exhaustion.paper_example_hours () in
  check_bool
    (Printf.sprintf "paper's 'at least 9 hours' (%.2f)" hours)
    true
    (hours >= 9.0 && hours < 10.0);
  let pages =
    Shadow.Exhaustion.pages_for_runtime ~seconds:3600. ~allocs_per_second:1000.
      ~pages_per_alloc:1.
  in
  Alcotest.check (Alcotest.float 0.1) "pages for an hour" 3_600_000. pages

let test_cache_behaviour_preserved () =
  (* Paper §3.1: multiple objects stay contiguous within the physical
     page, "preserving spatial locality in physically indexed caches".
     Same trace under plain, shadow, and Electric Fence; the cache miss
     counts of plain and shadow must track, while Electric Fence (one
     physical page per object) misses far more. *)
  let trace alloc load_w =
    let objs = Array.init 64 (fun _ -> alloc 32) in
    for pass = 1 to 5 do
      Array.iter (fun p -> ignore (load_w (p + (pass mod 3 * 8)))) objs
    done
  in
  let misses_of setup =
    let m = Machine.create () in
    let alloc, load_w = setup m in
    trace alloc load_w;
    (Stats.snapshot m.Machine.stats).Stats.cache_misses
  in
  let plain =
    misses_of (fun m ->
        let h = Heap.Freelist_malloc.create m in
        ( Heap.Freelist_malloc.alloc h,
          fun a -> Mmu.load m a ~width:8 ))
  in
  let shadowed =
    misses_of (fun m ->
        let registry = Shadow.Object_registry.create () in
        let h =
          Shadow.Shadow_heap.create ~registry
            ~allocator:
              (Heap.Freelist_malloc.as_allocator (Heap.Freelist_malloc.create m))
            m
        in
        ( (fun size -> Shadow.Shadow_heap.malloc h size),
          fun a -> Mmu.load m a ~width:8 ))
  in
  let efence =
    misses_of (fun m ->
        let s = Runtime.Efence.scheme m in
        ( (fun size -> s.Runtime.Scheme.malloc size),
          fun a -> s.Runtime.Scheme.load a ~width:8 ))
  in
  check_bool
    (Printf.sprintf "shadow ~ plain (%d vs %d)" shadowed plain)
    true
    (shadowed <= plain + (plain / 3) + 4);
  check_bool
    (Printf.sprintf "efence much worse (%d vs %d)" efence shadowed)
    true
    (efence > 2 * shadowed)

(* ---- soundness / precision property ---- *)

type model_obj = { addr : Addr.t; size : int; mutable freed : bool; tag : int }

(* Random traces of allocs, frees, and reads: every access to a freed
   object must raise a use-after-free violation; every access to a live
   object must succeed and return the value the model expects. *)
let prop_soundness_and_precision =
  QCheck.Test.make ~name:"shadow: sound and precise on random traces"
    ~count:40
    QCheck.(list_of_size (Gen.int_range 10 200) (pair (int_bound 5) (int_bound 1000)))
    (fun ops ->
      let m, registry, heap = make_heap () in
      let objects : model_obj array = Array.make 512 { addr = 0; size = 0; freed = true; tag = 0 } in
      let count = ref 0 in
      let ok = ref true in
      let do_alloc r =
        if !count < 512 then begin
          let size = 8 + (r mod 120) in
          let addr = Shadow.Shadow_heap.malloc heap size in
          let tag = r lxor 0x5A5A in
          store m registry addr tag;
          objects.(!count) <- { addr; size; freed = false; tag };
          incr count
        end
      in
      let pick r = if !count = 0 then None else Some objects.(r mod !count) in
      let do_free r =
        match pick r with
        | Some obj when not obj.freed ->
          Shadow.Shadow_heap.free heap obj.addr;
          obj.freed <- true
        | Some _ | None -> ()
      in
      let do_read r =
        match pick r with
        | None -> ()
        | Some obj ->
          (match load m registry obj.addr with
           | v ->
             if obj.freed then ok := false (* missed detection *)
             else if v <> obj.tag then ok := false (* corruption *)
           | exception Shadow.Report.Violation rep ->
             let is_uaf =
               match rep.Shadow.Report.kind with
               | Shadow.Report.Use_after_free _ -> true
               | _ -> false
             in
             if not (obj.freed && is_uaf) then ok := false)
      in
      List.iter
        (fun (op, r) ->
          match op with
          | 0 | 1 -> do_alloc r
          | 2 -> do_free r
          | _ -> do_read r)
        ops;
      !ok)

let prop_pool_soundness =
  QCheck.Test.make ~name:"shadow-pool: sound on random traces with reuse"
    ~count:25
    QCheck.(list_of_size (Gen.int_range 10 120) (pair (int_bound 5) (int_bound 1000)))
    (fun ops ->
      let m, registry, _, pool = make_pool () in
      let live = ref [] in
      let freed = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, r) ->
          match op with
          | 0 | 1 ->
            let a = Shadow.Shadow_pool.alloc pool (8 + (r mod 60)) in
            store m registry a r;
            live := (a, r) :: !live
          | 2 ->
            (match !live with
             | (a, _) :: rest ->
               Shadow.Shadow_pool.free pool a;
               freed := a :: !freed;
               live := rest
             | [] -> ())
          | _ ->
            (match !freed with
             | a :: _ ->
               (match load m registry a with
                | _ -> ok := false
                | exception Shadow.Report.Violation _ -> ())
             | [] ->
               (match !live with
                | (a, v) :: _ -> if load m registry a <> v then ok := false
                | [] -> ())))
        ops;
      !ok)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "shadow"
    [
      ( "mechanism",
        [
          Alcotest.test_case "alloc/read/write" `Quick test_alloc_read_write;
          Alcotest.test_case "uaf read + diagnostics" `Quick
            test_use_after_free_read;
          Alcotest.test_case "uaf write" `Quick test_use_after_free_write;
          Alcotest.test_case "interior offset" `Quick
            test_interior_offset_diagnosed;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "invalid free (interior)" `Quick
            test_invalid_free_interior;
          Alcotest.test_case "invalid free (wild)" `Quick
            test_invalid_free_wild;
        ] );
      ( "structure",
        [
          Alcotest.test_case "objects share physical page" `Quick
            test_objects_share_physical_page;
          Alcotest.test_case "offset preserved" `Quick test_offset_preserved;
          Alcotest.test_case "physical parity" `Quick
            test_physical_parity_with_plain_allocator;
          Alcotest.test_case "syscalls per op" `Quick
            test_syscall_per_alloc_and_free;
          Alcotest.test_case "multi-page objects" `Quick test_multi_page_object;
          Alcotest.test_case "allocator agnostic" `Quick test_allocator_agnostic;
          Alcotest.test_case "detected arbitrarily later" `Quick
            test_stale_pointer_arbitrarily_later;
          Alcotest.test_case "cache behaviour preserved" `Quick
            test_cache_behaviour_preserved;
        ] );
      ( "pool",
        [
          Alcotest.test_case "detection" `Quick test_pool_detection;
          Alcotest.test_case "destroy recycles" `Quick
            test_pool_destroy_recycles_shadow_and_canonical;
          Alcotest.test_case "VA bounded" `Quick
            test_pool_va_bounded_across_generations;
          Alcotest.test_case "no shadow reuse grows VA" `Quick
            test_pool_no_shadow_reuse_grows_va;
          Alcotest.test_case "registry forgotten" `Quick
            test_registry_forgotten_after_destroy;
          Alcotest.test_case "reclaim freed shadow" `Quick
            test_reclaim_freed_shadow;
        ] );
      ( "policies",
        [
          Alcotest.test_case "interval reuse" `Quick test_interval_reuse_policy;
          Alcotest.test_case "conservative gc requires a collector" `Quick
            test_conservative_gc_requires_collector;
          Alcotest.test_case "conservative gc" `Quick
            test_conservative_gc_policy;
          Alcotest.test_case "manual" `Quick test_manual_policy_never_reclaims;
          Alcotest.test_case "exhaustion model" `Quick test_exhaustion_model;
        ] );
      ( "properties",
        qcheck [ prop_soundness_and_precision; prop_pool_soundness ] );
    ]
