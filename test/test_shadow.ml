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

(* A pool whose recycled canonical range cannot be re-backed serves from
   fresh pages, and a stale pointer into the destroyed pool still traps. *)
let test_pool_rebacking_refused () =
  let m, registry, recycler, pool = make_pool () in
  let p = Shadow.Shadow_pool.alloc pool ~site:"old" 32 in
  Shadow.Shadow_pool.free pool ~site:"old-free" p;
  Shadow.Shadow_pool.destroy pool;
  let available = Apa.Page_recycler.available_pages recycler in
  let fresh_from = m.Machine.next_va in
  m.Machine.fault_plan <-
    Fault_plan.create
      [
        {
          Fault_plan.calls = [ Fault_plan.Mmap_fixed ];
          trigger = Fault_plan.Nth_call 1;
          error = Fault_plan.Fatal Fault_plan.Enomem;
        };
      ];
  let pool = Shadow.Shadow_pool.create ~recycler ~registry m in
  let q = Shadow.Shadow_pool.alloc pool ~site:"new" 32 in
  check_int "the refusal was injected" 1
    (Fault_plan.injected m.Machine.fault_plan);
  (match Shadow.Object_registry.find_by_addr registry q with
   | Some obj ->
     check_bool "canonical block on fresh pages" true
       (obj.Shadow.Object_registry.canonical >= fresh_from)
   | None -> Alcotest.fail "new object not registered");
  (* Only the new object's one shadow page left the free list; the
     refused canonical range went back on it. *)
  check_int "refused range still reusable" (available - 1)
    (Apa.Page_recycler.available_pages recycler);
  store m registry q 5;
  check_int "new object usable" 5 (load m registry q);
  (* Destroy dropped the old object's record, so the trap on its still
     protected shadow page reads as a wild access. *)
  ignore
    (expect_violation "stale pointer into the destroyed pool"
       (function Shadow.Report.Wild_access _ -> true | _ -> false)
       (fun () -> load m registry p))

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

(* A caller may pass a stale list, duplicates included: a range listed
   twice is released once, so the pages reported match the pages that
   reached the recycler. *)
let test_reclaim_duplicated_range () =
  let _, _, recycler, pool = make_pool () in
  let p = Shadow.Shadow_pool.alloc pool 32 in
  Shadow.Shadow_pool.free pool p;
  let fr = Shadow.Shadow_pool.freed_ranges pool in
  check_int "one freed range" 1 (List.length fr);
  let reclaimed = Shadow.Shadow_pool.reclaim_ranges pool (fr @ fr) in
  check_int "on the free list" 1 (Apa.Page_recycler.available_pages recycler);
  check_int "counted once" 1 reclaimed;
  check_int "freed set drained" 0 (Shadow.Shadow_pool.freed_shadow_pages pool);
  check_int "a stale list releases nothing" 0
    (Shadow.Shadow_pool.reclaim_ranges pool fr);
  Shadow.Shadow_pool.destroy pool

(* ---- structural gates: the reclamation path stays linear ---- *)

(* The gate in the style of the MMU's walks-per-TLB-hit: a free that
   consults the reuse policy reads no shadow-range entry, however many
   ranges the pool holds. *)
let test_free_path_visits_no_range () =
  let _, _, _, pool = make_pool () in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = max_int })
      pool
  in
  Shadow.Reuse_policy.attach policy;
  let before = Shadow.Shadow_pool.ranges_visited pool in
  for _ = 1 to 10_000 do
    Shadow.Shadow_pool.free pool (Shadow.Shadow_pool.alloc pool 32)
  done;
  check_int "10,000 frees hold 10,000 freed pages" 10_000
    (Shadow.Shadow_pool.freed_shadow_pages pool);
  check_int "held pages" 10_000 (Shadow.Shadow_pool.shadow_pages_live pool);
  check_int "no range visited on the alloc/free path" 0
    (Shadow.Shadow_pool.ranges_visited pool - before);
  check_int "trigger never reached" 0 (Shadow.Reuse_policy.reclaimed_pages policy)

(* One GC run reads each range entry a bounded number of times, the
   same bound at every size — a per-range refold of the table would
   grow with the number of freed ranges. *)
let test_gc_run_visits_linear () =
  List.iter
    (fun n ->
      let _, _, _, pool = make_pool () in
      let roots = Roots.create () in
      let gc = Shadow.Gc.create ~roots pool in
      let objs = List.init (2 * n) (fun _ -> Shadow.Shadow_pool.alloc pool 32) in
      List.iteri (fun i a -> if i mod 2 = 0 then Shadow.Shadow_pool.free pool a) objs;
      (* one freed range stays pinned by a register *)
      Roots.set_register roots 0 (List.hd objs);
      let entries = 2 * n in
      let before = Shadow.Shadow_pool.ranges_visited pool in
      let r = Shadow.Gc.run gc in
      let visits = Shadow.Shadow_pool.ranges_visited pool - before in
      check_int (Printf.sprintf "n=%d: reclaimed" n) (n - 1)
        (List.length r.Shadow.Gc.reclaimed);
      check_bool
        (Printf.sprintf "n=%d: %d visits <= 3 per entry (%d entries)" n visits
           entries)
        true
        (visits <= 3 * entries))
    [ 10; 100; 1000 ]

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

(* ---- running counts under random reclamation traces ---- *)

type count_op =
  | C_alloc of int  (** size *)
  | C_free of int  (** pick among live objects *)
  | C_free_unprotected of int
  | C_defer of int  (** epoch-mode free of a live object *)
  | C_retire of int  (** protect, then retire, a deferred object *)
  | C_reclaim of int list  (** picks among freed and stale ranges *)
  | C_gc of int * int  (** freed object to root, live object to hold it *)
  | C_fail_unmap of bool

let show_count_op = function
  | C_alloc n -> Printf.sprintf "alloc %d" n
  | C_free i -> Printf.sprintf "free %d" i
  | C_free_unprotected i -> Printf.sprintf "free_unprotected %d" i
  | C_defer i -> Printf.sprintf "defer %d" i
  | C_retire i -> Printf.sprintf "retire %d" i
  | C_reclaim l ->
    Printf.sprintf "reclaim [%s]" (String.concat ";" (List.map string_of_int l))
  | C_gc (i, j) -> Printf.sprintf "gc %d %d" i j
  | C_fail_unmap b -> Printf.sprintf "fail_unmap %b" b

let gen_count_op =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun n -> C_alloc n) (int_range 1 6000));
      (3, map (fun i -> C_free i) nat);
      (1, map (fun i -> C_free_unprotected i) nat);
      (2, map (fun i -> C_defer i) nat);
      (2, map (fun i -> C_retire i) nat);
      (2, map (fun l -> C_reclaim l) (list_size (int_bound 6) nat));
      (2, map2 (fun i j -> C_gc (i, j)) nat nat);
      (1, map (fun b -> C_fail_unmap b) bool);
    ]

type tracked = {
  obj : Shadow.Object_registry.obj;
  mutable stage : [ `Live | `Deferred | `Freed ];
  mutable protected_ : bool;
}

(* After every step of a random trace — the eager, degraded and epoch
   free paths, stale/duplicated/unsorted reclaim lists, GC runs with
   planted roots, injected unmap failures and a final destroy — the
   running counts equal a recount from scratch, the freed set is exactly
   the retired objects still held, every range a GC reports reclaimed
   has left the freed set, and every pinned protected range traps. *)
let prop_running_counts =
  QCheck.Test.make ~name:"shadow-pool: running counts match a recount"
    ~count:60
    QCheck.(
      triple bool bool
        (make
           ~print:(fun ops -> String.concat ", " (List.map show_count_op ops))
           Gen.(list_size (int_range 1 60) gen_count_op)))
    (fun (with_recycler, destroy, ops) ->
      let m = Machine.create () in
      let registry = Shadow.Object_registry.create () in
      let recycler =
        if with_recycler then Some (Apa.Page_recycler.create ()) else None
      in
      let fail = ref false in
      let unmap ~addr ~pages =
        if !fail then Error (Fault_plan.Transient Fault_plan.Eagain)
        else Syscalls.munmap m ~addr ~pages
      in
      let pool = Shadow.Shadow_pool.create ?recycler ~unmap ~registry m in
      let roots = Roots.create () in
      let gc = Shadow.Gc.create ~roots pool in
      let objs = ref [] in
      let held t =
        match Shadow.Object_registry.find_by_addr registry t.obj.user_addr with
        | Some o -> o == t.obj
        | None -> false
      in
      let pick stage i =
        match List.filter (fun t -> t.stage = stage && held t) !objs with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let range t = (t.obj.shadow_base, t.obj.pages) in
      let sum = List.fold_left (fun acc (_, p) -> acc + p) 0 in
      let check_counts step =
        let freed = Shadow.Shadow_pool.freed_ranges pool in
        let expect_freed =
          List.filter (fun t -> t.stage = `Freed && held t) !objs
          |> List.map range |> List.sort compare
        in
        let recount =
          List.fold_left
            (fun acc t -> if held t then acc + t.obj.pages else acc)
            0 !objs
        in
        if Shadow.Shadow_pool.freed_shadow_pages pool <> sum freed then
          QCheck.Test.fail_reportf "%s: freed_shadow_pages %d, ranges sum %d"
            step (Shadow.Shadow_pool.freed_shadow_pages pool) (sum freed);
        if Shadow.Shadow_pool.shadow_pages_live pool <> recount then
          QCheck.Test.fail_reportf "%s: shadow_pages_live %d, recount %d" step
            (Shadow.Shadow_pool.shadow_pages_live pool) recount;
        if freed <> expect_freed then
          QCheck.Test.fail_reportf "%s: freed set differs from the model" step
      in
      let step op =
        match op with
        | C_alloc n ->
          let a = Shadow.Shadow_pool.alloc pool n in
          (match Shadow.Object_registry.find_by_addr registry a with
           | Some obj -> objs := { obj; stage = `Live; protected_ = false } :: !objs
           | None -> QCheck.Test.fail_report "alloc not registered")
        | C_free i ->
          Option.iter
            (fun t ->
              Shadow.Shadow_pool.free pool t.obj.user_addr;
              t.stage <- `Freed;
              t.protected_ <- true)
            (pick `Live i)
        | C_free_unprotected i ->
          Option.iter
            (fun t ->
              ignore (Shadow.Shadow_pool.free_unprotected pool t.obj.user_addr);
              t.stage <- `Freed)
            (pick `Live i)
        | C_defer i ->
          Option.iter
            (fun t ->
              ignore (Shadow.Shadow_pool.free_deferred pool t.obj.user_addr);
              t.stage <- `Deferred)
            (pick `Live i)
        | C_retire i ->
          Option.iter
            (fun t ->
              Kernel.mprotect m ~addr:t.obj.shadow_base ~pages:t.obj.pages
                Perm.No_access;
              Shadow.Shadow_pool.retire_object pool t.obj;
              t.stage <- `Freed;
              t.protected_ <- true)
            (pick `Deferred i)
        | C_reclaim picks ->
          (* Unsorted picks over the freed set plus every range ever
             handed out, so stale and duplicated entries both occur. *)
          let candidates =
            Array.of_list
              (Shadow.Shadow_pool.freed_ranges pool @ List.map range !objs)
          in
          if candidates <> [||] then begin
            let ranges =
              List.map (fun k -> candidates.(k mod Array.length candidates)) picks
            in
            let before = Shadow.Shadow_pool.freed_shadow_pages pool in
            let released = Shadow.Shadow_pool.reclaim_ranges pool ranges in
            if before - Shadow.Shadow_pool.freed_shadow_pages pool <> released
            then
              QCheck.Test.fail_reportf "reclaim reported %d pages, released %d"
                released
                (before - Shadow.Shadow_pool.freed_shadow_pages pool)
          end
        | C_gc (i, j) ->
          let target = pick `Freed i in
          let holder = pick `Live j in
          Option.iter
            (fun t -> Roots.set_register roots 0 (t.obj.user_addr + (i mod 8)))
            target;
          (match (target, holder) with
           | Some t, Some h ->
             Mmu.store m h.obj.user_addr ~width:8 t.obj.user_addr
           | _ -> ());
          let r = Shadow.Gc.run gc in
          List.iter
            (fun (base, _) ->
              if Shadow.Shadow_pool.is_freed pool base
                 || List.mem_assoc base (Shadow.Shadow_pool.freed_ranges pool)
              then QCheck.Test.fail_reportf "reclaimed 0x%x still freed" base)
            r.Shadow.Gc.reclaimed;
          Option.iter
            (fun t ->
              if not
                   (List.exists
                      (fun p -> p.Shadow.Gc.p_base = t.obj.shadow_base)
                      r.Shadow.Gc.pinned)
              then QCheck.Test.fail_report "rooted range not pinned")
            target;
          List.iter
            (fun (t : tracked) ->
              if t.protected_ && t.stage = `Freed && held t then
                match load m registry t.obj.user_addr with
                | _ -> QCheck.Test.fail_report "pinned range did not trap"
                | exception Shadow.Report.Violation _ -> ())
            !objs;
          Roots.clear_register roots 0;
          Option.iter
            (fun h -> Mmu.store m h.obj.user_addr ~width:8 0)
            holder
        | C_fail_unmap b -> fail := b
      in
      List.iter
        (fun op ->
          step op;
          check_counts (show_count_op op))
        ops;
      if destroy then begin
        Shadow.Shadow_pool.destroy pool;
        check_counts "destroy";
        if Shadow.Shadow_pool.shadow_pages_live pool <> 0 then
          QCheck.Test.fail_report "destroy left pages held"
      end;
      true)

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
          Alcotest.test_case "refused re-backing takes fresh pages" `Quick
            test_pool_rebacking_refused;
          Alcotest.test_case "VA bounded" `Quick
            test_pool_va_bounded_across_generations;
          Alcotest.test_case "no shadow reuse grows VA" `Quick
            test_pool_no_shadow_reuse_grows_va;
          Alcotest.test_case "registry forgotten" `Quick
            test_registry_forgotten_after_destroy;
          Alcotest.test_case "reclaim freed shadow" `Quick
            test_reclaim_freed_shadow;
          Alcotest.test_case "reclaim counts a duplicated range once" `Quick
            test_reclaim_duplicated_range;
        ] );
      ( "structural",
        [
          Alcotest.test_case "free path visits no range" `Quick
            test_free_path_visits_no_range;
          Alcotest.test_case "gc run visits each range a bounded number of times"
            `Quick test_gc_run_visits_linear;
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
        qcheck
          [
            prop_soundness_and_precision;
            prop_pool_soundness;
            prop_running_counts;
          ] );
    ]
