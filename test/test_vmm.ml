(* Unit and property tests for the virtual-memory substrate: address
   arithmetic, permissions, physical frames, page tables, the TLB model,
   the MMU access path, and the kernel's syscall layer. *)

open Vmm

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---- Addr ---- *)

let test_addr_arithmetic () =
  check_int "page size" 4096 Addr.page_size;
  check_int "page index of 0" 0 (Addr.page_index 0);
  check_int "page index of 4095" 0 (Addr.page_index 4095);
  check_int "page index of 4096" 1 (Addr.page_index 4096);
  check_int "page base" 8192 (Addr.page_base 8195);
  check_int "offset" 3 (Addr.offset 8195);
  check_int "of_page" 12288 (Addr.of_page 3);
  check_bool "aligned" true (Addr.is_page_aligned 8192);
  check_bool "unaligned" false (Addr.is_page_aligned 8193);
  check_int "align_up exact" 4096 (Addr.align_up 4096);
  check_int "align_up" 8192 (Addr.align_up 4097)

let test_pages_spanning () =
  check_int "within one page" 1 (Addr.pages_spanning 100 100);
  check_int "exactly one page" 1 (Addr.pages_spanning 0 4096);
  check_int "crossing boundary" 2 (Addr.pages_spanning 4000 200);
  check_int "two full pages" 2 (Addr.pages_spanning 0 8192);
  check_int "three pages" 3 (Addr.pages_spanning 4095 4098)

let prop_page_roundtrip =
  QCheck.Test.make ~name:"addr: page_base + offset = id"
    QCheck.(int_bound 1_000_000_000)
    (fun a -> Addr.page_base a + Addr.offset a = a)

let prop_pages_spanning_positive =
  QCheck.Test.make ~name:"addr: pages_spanning covers the range"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 20_000))
    (fun (a, size) ->
      let pages = Addr.pages_spanning a size in
      let first = Addr.page_index a in
      let last = Addr.page_index (a + size - 1) in
      pages = last - first + 1 && pages >= 1)

(* ---- Perm ---- *)

let test_perm_allows () =
  check_bool "none/read" false (Perm.allows Perm.No_access Perm.Read);
  check_bool "none/write" false (Perm.allows Perm.No_access Perm.Write);
  check_bool "ro/read" true (Perm.allows Perm.Read_only Perm.Read);
  check_bool "ro/write" false (Perm.allows Perm.Read_only Perm.Write);
  check_bool "rw/read" true (Perm.allows Perm.Read_write Perm.Read);
  check_bool "rw/write" true (Perm.allows Perm.Read_write Perm.Write)

(* ---- Frame table ---- *)

let test_frame_refcounting () =
  let ft = Frame_table.create () in
  let stats = Stats.create () in
  let f = Frame_table.allocate ft stats in
  check_int "fresh refcount" 0 (Frame_table.ref_count ft f);
  Frame_table.incr_ref ft f;
  Frame_table.incr_ref ft f;
  check_int "two refs" 2 (Frame_table.ref_count ft f);
  Frame_table.decr_ref ft f;
  check_bool "still live" true (Frame_table.exists ft f);
  Frame_table.decr_ref ft f;
  check_bool "reclaimed at zero" false (Frame_table.exists ft f)

let test_frame_bytes () =
  let ft = Frame_table.create () in
  let stats = Stats.create () in
  let f = Frame_table.allocate ft stats in
  Frame_table.incr_ref ft f;
  Frame_table.write_byte ft f 17 0xAB;
  check_int "read back" 0xAB (Frame_table.read_byte ft f 17);
  check_int "zero initialised" 0 (Frame_table.read_byte ft f 18)

let test_frame_peak () =
  let ft = Frame_table.create () in
  let stats = Stats.create () in
  let fs = List.init 5 (fun _ -> Frame_table.allocate ft stats) in
  List.iter (Frame_table.incr_ref ft) fs;
  check_int "live" 5 (Frame_table.live_frames ft);
  List.iter (Frame_table.decr_ref ft) fs;
  check_int "live after free" 0 (Frame_table.live_frames ft);
  check_int "peak retained" 5 (Frame_table.peak_frames ft)

(* ---- Page table ---- *)

let test_page_table () =
  let pt = Page_table.create () in
  let stats = Stats.create () in
  Page_table.map pt stats ~page:7 ~frame:3 ~perm:Perm.Read_write;
  (match Page_table.lookup pt ~page:7 with
   | Some { Page_table.frame; perm } ->
     check_int "frame" 3 frame;
     check_bool "perm" true (Perm.equal perm Perm.Read_write)
   | None -> Alcotest.fail "mapping missing");
  Page_table.set_perm pt ~page:7 Perm.No_access;
  (match Page_table.lookup pt ~page:7 with
   | Some { Page_table.perm; _ } ->
     check_bool "protected" true (Perm.equal perm Perm.No_access)
   | None -> Alcotest.fail "mapping missing after mprotect");
  let entry = Page_table.unmap pt ~page:7 in
  check_int "unmapped frame" 3 entry.Page_table.frame;
  check_bool "gone" false (Page_table.is_mapped pt ~page:7)

let test_page_table_errors () =
  let pt = Page_table.create () in
  let stats = Stats.create () in
  Page_table.map pt stats ~page:1 ~frame:0 ~perm:Perm.Read_write;
  Alcotest.check_raises "double map"
    (Invalid_argument "Page_table.map: page 1 already mapped") (fun () ->
      Page_table.map pt stats ~page:1 ~frame:1 ~perm:Perm.Read_write);
  Alcotest.check_raises "unmap missing"
    (Invalid_argument "Page_table.unmap: page 9 not mapped") (fun () ->
      ignore (Page_table.unmap pt ~page:9))

(* ---- TLB ---- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  let stats = Stats.create () in
  check_bool "cold miss" true (Tlb.lookup tlb stats ~page:5 = None);
  Tlb.insert tlb ~page:5 ~frame:42 ~perm:Perm.Read_write;
  check_bool "hit" true
    (Tlb.lookup tlb stats ~page:5 = Some (42, Perm.Read_write));
  let s = Stats.snapshot stats in
  check_int "one miss" 1 s.Stats.tlb_misses;
  check_int "one hit" 1 s.Stats.tlb_hits

let test_tlb_eviction () =
  (* 2-way sets: filling three pages of the same set evicts the LRU. *)
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  let stats = Stats.create () in
  let n_sets = 4 in
  let p0 = 0 and p1 = n_sets and p2 = 2 * n_sets in
  Tlb.insert tlb ~page:p0 ~frame:0 ~perm:Perm.Read_write;
  Tlb.insert tlb ~page:p1 ~frame:1 ~perm:Perm.Read_write;
  ignore (Tlb.lookup tlb stats ~page:p0);
  Tlb.insert tlb ~page:p2 ~frame:2 ~perm:Perm.Read_write;
  check_bool "LRU evicted" true (Tlb.lookup tlb stats ~page:p1 = None);
  check_bool "MRU kept" true
    (Tlb.lookup tlb stats ~page:p0 = Some (0, Perm.Read_write))

let test_tlb_invalidate_and_flush () =
  let tlb = Tlb.create () in
  let stats = Stats.create () in
  Tlb.insert tlb ~page:3 ~frame:9 ~perm:Perm.Read_write;
  Tlb.invalidate_page tlb ~page:3;
  check_bool "invalidated" true (Tlb.lookup tlb stats ~page:3 = None);
  Tlb.insert tlb ~page:4 ~frame:1 ~perm:Perm.Read_write;
  Tlb.insert tlb ~page:5 ~frame:2 ~perm:Perm.Read_write;
  Tlb.flush tlb stats;
  check_bool "flushed 4" true (Tlb.lookup tlb stats ~page:4 = None);
  check_bool "flushed 5" true (Tlb.lookup tlb stats ~page:5 = None);
  check_int "flush counted" 1 (Stats.snapshot stats).Stats.tlb_flushes

let test_tlb_same_page_reinsert () =
  let tlb = Tlb.create ~entries:4 ~ways:2 () in
  let stats = Stats.create () in
  Tlb.insert tlb ~page:2 ~frame:1 ~perm:Perm.Read_write;
  Tlb.insert tlb ~page:2 ~frame:7 ~perm:Perm.Read_only;
  check_bool "latest translation" true
    (Tlb.lookup tlb stats ~page:2 = Some (7, Perm.Read_only))

(* ---- Kernel + MMU ---- *)

let test_mmap_and_access () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  check_bool "page aligned" true (Addr.is_page_aligned a);
  Mmu.store m a ~width:8 0x1122334455;
  check_int "read back" 0x1122334455 (Mmu.load m a ~width:8);
  check_int "zero elsewhere" 0 (Mmu.load m (a + 8) ~width:8)

let test_access_widths () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 0x0807060504030201;
  check_int "byte" 0x01 (Mmu.load m a ~width:1);
  check_int "half" 0x0201 (Mmu.load m a ~width:2);
  check_int "word" 0x04030201 (Mmu.load m a ~width:4);
  check_int "second byte" 0x02 (Mmu.load m (a + 1) ~width:1)

let test_cross_page_access () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  let boundary = a + Addr.page_size - 4 in
  Mmu.store m boundary ~width:8 0x1234567890ABCDEF;
  check_int "cross-page roundtrip" 0x1234567890ABCDEF
    (Mmu.load m boundary ~width:8)

let test_unmapped_fault () =
  let m = Machine.create () in
  (match Mmu.load m 0x999 ~width:8 with
   | _ -> Alcotest.fail "expected trap"
   | exception Fault.Trap (Fault.Unmapped { addr; _ }) ->
     check_int "fault address" 0x999 addr
   | exception Fault.Trap _ -> Alcotest.fail "wrong fault kind")

let test_mprotect_fault () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 7;
  Kernel.mprotect m ~addr:a ~pages:1 Perm.No_access;
  (match Mmu.load m a ~width:8 with
   | _ -> Alcotest.fail "expected protection trap"
   | exception Fault.Trap (Fault.Protection { perm; _ }) ->
     check_bool "perm none" true (Perm.equal perm Perm.No_access)
   | exception Fault.Trap _ -> Alcotest.fail "wrong fault kind");
  Kernel.mprotect m ~addr:a ~pages:1 Perm.Read_only;
  check_int "read-only read ok" 7 (Mmu.load m a ~width:8);
  (match Mmu.store m a ~width:8 9 with
   | () -> Alcotest.fail "expected write trap"
   | exception Fault.Trap (Fault.Protection { access; _ }) ->
     check_bool "write access" true (access = Perm.Write)
   | exception Fault.Trap _ -> Alcotest.fail "wrong fault kind")

let test_alias_shares_frames () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 0xBEEF;
  let b = Kernel.mremap_alias m ~src:a ~pages:1 in
  check_bool "distinct virtual pages" true
    (Addr.page_index a <> Addr.page_index b);
  check_int "alias reads same data" 0xBEEF (Mmu.load m b ~width:8);
  Mmu.store m b ~width:8 0xCAFE;
  check_int "write through alias visible" 0xCAFE (Mmu.load m a ~width:8);
  (* Protecting the alias must not disturb the canonical mapping. *)
  Kernel.mprotect m ~addr:b ~pages:1 Perm.No_access;
  check_int "canonical unaffected" 0xCAFE (Mmu.load m a ~width:8)

let test_alias_refcount () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  let live_before = Frame_table.live_frames m.Machine.frames in
  let b = Kernel.mremap_alias m ~src:a ~pages:1 in
  check_int "alias allocates no frame" live_before
    (Frame_table.live_frames m.Machine.frames);
  Kernel.munmap m ~addr:a ~pages:1;
  check_int "frame survives via alias" live_before
    (Frame_table.live_frames m.Machine.frames);
  Kernel.munmap m ~addr:b ~pages:1;
  check_int "frame freed with last mapping" (live_before - 1)
    (Frame_table.live_frames m.Machine.frames)

let test_mmap_fixed_replaces () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 77;
  Kernel.mprotect m ~addr:a ~pages:1 Perm.No_access;
  Kernel.mmap_fixed m ~addr:a ~pages:1;
  check_int "fresh zero frame, writable again" 0 (Mmu.load m a ~width:8);
  Mmu.store m a ~width:8 88;
  check_int "writable" 88 (Mmu.load m a ~width:8)

let test_syscall_counting () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  let b = Kernel.mremap_alias m ~src:a ~pages:1 in
  Kernel.mprotect m ~addr:b ~pages:1 Perm.No_access;
  Kernel.munmap m ~addr:b ~pages:1;
  Kernel.dummy_syscall m;
  let s = Stats.snapshot m.Machine.stats in
  check_int "mmap" 1 s.Stats.syscalls_mmap;
  check_int "mremap" 1 s.Stats.syscalls_mremap;
  check_int "mprotect" 1 s.Stats.syscalls_mprotect;
  check_int "munmap" 1 s.Stats.syscalls_munmap;
  check_int "dummy" 1 s.Stats.syscalls_dummy;
  check_int "total" 5 (Stats.total_syscalls s)

let test_kernel_argument_validation () =
  let m = Machine.create () in
  Alcotest.check_raises "unaligned mprotect"
    (Invalid_argument "Kernel.mprotect: unaligned address 0x11") (fun () ->
      Kernel.mprotect m ~addr:0x11 ~pages:1 Perm.No_access);
  Alcotest.check_raises "zero pages"
    (Invalid_argument "Kernel.mmap: pages <= 0") (fun () ->
      ignore (Kernel.mmap m ~pages:0))

let test_alias_at_recycled_location () =
  (* mremap_alias_at must atomically replace whatever mapping the
     destination held (recycled shadow placement). *)
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 111;
  let stale = Kernel.mmap m ~pages:1 in
  Kernel.mprotect m ~addr:stale ~pages:1 Perm.No_access;
  Kernel.mremap_alias_at m ~src:a ~dst:stale ~pages:1;
  check_int "alias readable at recycled address" 111 (Mmu.load m stale ~width:8)

let test_alias_multi_page () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:3 in
  Mmu.store m (a + (2 * Addr.page_size)) ~width:8 77;
  let b = Kernel.mremap_alias m ~src:a ~pages:3 in
  check_int "third page aliased" 77
    (Mmu.load m (b + (2 * Addr.page_size)) ~width:8);
  (* Protect only the middle alias page: first and last stay usable. *)
  Kernel.mprotect m ~addr:(b + Addr.page_size) ~pages:1 Perm.No_access;
  Mmu.store m b ~width:8 1;
  check_int "first alias page fine" 1 (Mmu.load m b ~width:8);
  (match Mmu.load m (b + Addr.page_size) ~width:8 with
   | _ -> Alcotest.fail "middle page should trap"
   | exception Fault.Trap _ -> ())

let test_munmap_partial_range () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:3 in
  Mmu.store m a ~width:8 1;
  Mmu.store m (a + (2 * Addr.page_size)) ~width:8 3;
  Kernel.munmap m ~addr:(a + Addr.page_size) ~pages:1;
  check_int "first page intact" 1 (Mmu.load m a ~width:8);
  check_int "third page intact" 3 (Mmu.load m (a + (2 * Addr.page_size)) ~width:8);
  (match Mmu.load m (a + Addr.page_size) ~width:8 with
   | _ -> Alcotest.fail "middle page should be unmapped"
   | exception Fault.Trap (Fault.Unmapped _) -> ()
   | exception Fault.Trap _ -> Alcotest.fail "wrong fault")

let test_exempt_access_ignores_permissions () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 9;
  Kernel.mprotect m ~addr:a ~pages:1 Perm.No_access;
  check_int "kernel-mode read bypasses protection" 9
    (Mmu.load_exempt m a ~width:8);
  Mmu.store_exempt m a ~width:8 10;
  Kernel.mprotect m ~addr:a ~pages:1 Perm.Read_write;
  check_int "kernel-mode write landed" 10 (Mmu.load m a ~width:8)

let test_probe () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  check_bool "probe ok" true (Mmu.probe m a ~access:Perm.Write = Ok ());
  Kernel.mprotect m ~addr:a ~pages:1 Perm.Read_only;
  check_bool "probe write denied" true
    (match Mmu.probe m a ~access:Perm.Write with Error _ -> true | Ok () -> false);
  check_bool "probe read ok" true (Mmu.probe m a ~access:Perm.Read = Ok ())

(* ---- Cache ---- *)

let test_cache_hit_miss () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_bytes:64 () in
  let stats = Stats.create () in
  Cache.access c stats ~phys_addr:0;
  Cache.access c stats ~phys_addr:8; (* same 64-byte line *)
  Cache.access c stats ~phys_addr:64; (* next line *)
  let s = Stats.snapshot stats in
  check_int "hits" 1 s.Stats.cache_hits;
  check_int "misses" 2 s.Stats.cache_misses

let test_cache_eviction_lru () =
  let c = Cache.create ~sets:2 ~ways:2 ~line_bytes:64 () in
  let stats = Stats.create () in
  (* Three lines mapping to set 0: 0, 128, 256 (line indices 0, 2, 4). *)
  Cache.access c stats ~phys_addr:0;
  Cache.access c stats ~phys_addr:128;
  Cache.access c stats ~phys_addr:0; (* refresh line 0 *)
  Cache.access c stats ~phys_addr:256; (* evicts line 2 (LRU) *)
  let before = (Stats.snapshot stats).Stats.cache_misses in
  Cache.access c stats ~phys_addr:0;
  check_int "line 0 kept" before (Stats.snapshot stats).Stats.cache_misses;
  Cache.access c stats ~phys_addr:128;
  check_int "line 2 evicted" (before + 1)
    (Stats.snapshot stats).Stats.cache_misses

let test_cache_physical_indexing_through_mmu () =
  (* Two virtual aliases of one physical page share cache lines: the
     shadow scheme preserves cache behaviour (paper §3.1). *)
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  let b = Kernel.mremap_alias m ~src:a ~pages:1 in
  ignore (Mmu.load m a ~width:8); (* miss: fills the line *)
  let before = (Stats.snapshot m.Machine.stats).Stats.cache_misses in
  ignore (Mmu.load m b ~width:8); (* alias hit: same physical line *)
  check_int "alias hits the same line" before
    (Stats.snapshot m.Machine.stats).Stats.cache_misses

(* ---- Exit and the per-domain page pools ---- *)

(* [f] on a domain of its own, whose pools start empty. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let words_per_page = Addr.page_size / 8

let all_words_zero m base ~pages =
  let ok = ref true in
  for w = 0 to (pages * words_per_page) - 1 do
    if Mmu.load m (base + (8 * w)) ~width:8 <> 0 then ok := false
  done;
  !ok

(* Machine A dirties every word of its pages and exits; machine B, next
   on the same domain, is built from A's buffers and chunks (it makes
   no fresh page buffer) and reads zero everywhere: through fresh
   mappings, aliases of them, and MAP_FIXED replacements. *)
let test_exit_reuse_reads_zero () =
  on_fresh_domain (fun () ->
      let pages = 16 in
      let a = Machine.create () in
      let base = Kernel.mmap a ~pages in
      for w = 0 to (pages * words_per_page) - 1 do
        Mmu.store a (base + (8 * w)) ~width:8 (0x5A5A_0000 + w)
      done;
      let before = Stats.snapshot a.Machine.stats in
      Machine.exit a;
      check_bool "exit counts nothing" true
        (Stats.snapshot a.Machine.stats = before);
      let b = Machine.create () in
      let _, promoted0, major0 = Gc.counters () in
      let fresh = Kernel.mmap b ~pages:(pages / 2) in
      let fixed = Machine.fresh_pages b (pages / 2) in
      Kernel.mmap_fixed b ~addr:fixed ~pages:(pages / 2);
      let _, promoted1, major1 = Gc.counters () in
      check_bool "B's pages come from A's buffers" true
        (major1 -. major0 -. (promoted1 -. promoted0)
         < float_of_int words_per_page);
      check_bool "fresh mapping reads zero" true
        (all_words_zero b fresh ~pages:(pages / 2));
      let alias = Kernel.mremap_alias b ~src:fresh ~pages:(pages / 2) in
      check_bool "alias reads zero" true
        (all_words_zero b alias ~pages:(pages / 2));
      check_bool "MAP_FIXED mapping reads zero" true
        (all_words_zero b fixed ~pages:(pages / 2));
      (* A second MAP_FIXED over dirtied pages takes the buffers the
         replaced frames just released. *)
      Mmu.store b fixed ~width:8 7;
      Kernel.mmap_fixed b ~addr:fixed ~pages:(pages / 2);
      check_bool "MAP_FIXED over dirty pages reads zero" true
        (all_words_zero b fixed ~pages:(pages / 2)))

let test_exit_then_access_raises () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  Mmu.store m a ~width:8 1;
  ignore (Mmu.load m a ~width:8);
  Machine.exit m;
  let raises f =
    match f () with
    | _ -> false
    | exception Fault.Trap (Fault.Unmapped _) -> true
    | exception Invalid_argument _ -> true
  in
  (* The page was in the TLB: exit drops it there too, so the access
     traps as unmapped instead of reaching the frame table. *)
  let unmapped f =
    match f () with
    | _ -> false
    | exception Fault.Trap (Fault.Unmapped _) -> true
  in
  check_bool "load traps" true (unmapped (fun () -> Mmu.load m a ~width:8));
  check_bool "store traps" true (unmapped (fun () -> Mmu.store m a ~width:8 2));
  check_bool "kernel-mode load traps" true
    (raises (fun () -> Mmu.load_exempt m a ~width:8));
  check_bool "mmap raises" true (raises (fun () -> Kernel.mmap m ~pages:1));
  check_bool "alias raises" true
    (raises (fun () -> Kernel.mremap_alias m ~src:a ~pages:1));
  check_bool "MAP_FIXED raises" true
    (raises (fun () -> Kernel.mmap_fixed m ~addr:a ~pages:1));
  Machine.exit m

type chain_op =
  | Map of int  (** mmap that many pages *)
  | Alias of int  (** mremap_alias of a region *)
  | Fixed of int  (** mmap_fixed over a region *)
  | Store of int * int * int  (** region, word, value *)
  | Load of int * int  (** region, word *)
  | Unmap of int
  | Exit  (** the machine exits; the next op starts a fresh one *)

let show_chain_op = function
  | Map n -> Printf.sprintf "map %d" n
  | Alias r -> Printf.sprintf "alias %d" r
  | Fixed r -> Printf.sprintf "fixed %d" r
  | Store (r, w, v) -> Printf.sprintf "store %d.%d=%d" r w v
  | Load (r, w) -> Printf.sprintf "load %d.%d" r w
  | Unmap r -> Printf.sprintf "unmap %d" r
  | Exit -> "exit"

let gen_chain_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun n -> Map n) (int_range 1 4));
      (2, map (fun r -> Alias r) nat);
      (1, map (fun r -> Fixed r) nat);
      (5, map3 (fun r w v -> Store (r, w, v)) nat nat (int_bound 1_000_000));
      (6, map2 (fun r w -> Load (r, w)) nat nat);
      (2, map (fun r -> Unmap r) nat);
      (1, return Exit);
    ]

(* The ops of one machine, from its creation to its exit. *)
let split_at_exits ops =
  let rec go cur acc = function
    | [] -> List.rev (List.rev cur :: acc)
    | Exit :: rest -> go [] (List.rev cur :: acc) rest
    | op :: rest -> go (op :: cur) acc rest
  in
  go [] [] ops

type region = { base : Addr.t; pages : int; mutable mapped : bool }

(* One machine's life: every load's outcome, then its final counters. *)
let run_machine ops =
  let m = Machine.create () in
  let regions = ref [||] in
  let add r = regions := Array.append !regions [| r |] in
  let pick i f =
    let rs = !regions in
    if Array.length rs > 0 then f rs.(i mod Array.length rs)
  in
  let addr r w = r.base + (8 * (w mod (r.pages * words_per_page))) in
  let loads = ref [] in
  let attempt f =
    match f () with v -> Ok v | exception Fault.Trap fault -> Error fault
  in
  List.iter
    (function
      | Map pages -> add { base = Kernel.mmap m ~pages; pages; mapped = true }
      | Alias i ->
        pick i (fun r ->
            if r.mapped then
              add
                {
                  base = Kernel.mremap_alias m ~src:r.base ~pages:r.pages;
                  pages = r.pages;
                  mapped = true;
                })
      | Fixed i ->
        pick i (fun r ->
            Kernel.mmap_fixed m ~addr:r.base ~pages:r.pages;
            r.mapped <- true)
      | Store (i, w, v) ->
        pick i (fun r ->
            loads := attempt (fun () -> Mmu.store m (addr r w) ~width:8 v; -1)
                     :: !loads)
      | Load (i, w) ->
        pick i (fun r ->
            loads := attempt (fun () -> Mmu.load m (addr r w) ~width:8) :: !loads)
      | Unmap i ->
        pick i (fun r ->
            if r.mapped then begin
              Kernel.munmap m ~addr:r.base ~pages:r.pages;
              r.mapped <- false
            end)
      | Exit -> ())
    ops;
  let stats = Stats.snapshot m.Machine.stats in
  Machine.exit m;
  (List.rev !loads, stats)

(* A chain of machines on one domain, each built from the buffers its
   predecessors left, observes exactly what each machine observes on a
   fresh domain with empty pools. *)
let prop_exit_chain_matches_fresh_pools =
  QCheck.Test.make ~name:"exit: a chain on warm pools matches fresh pools"
    ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat ", " (List.map show_chain_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_chain_op))
    (fun ops ->
      let lives = split_at_exits ops in
      let warm = List.map run_machine lives in
      let fresh =
        List.map (fun life -> on_fresh_domain (fun () -> run_machine life)) lives
      in
      warm = fresh)

(* ---- Cost model ---- *)

let test_cost_model () =
  let s =
    { Stats.zero with Stats.instructions = 1000; loads = 100; stores = 50;
      tlb_misses = 10; syscalls_mremap = 2; faults = 1 }
  in
  let c = Cost_model.cycles Cost_model.native s in
  let expected = 1000. +. 150. +. 75. +. 300. +. 5000. +. 4000. in
  Alcotest.check (Alcotest.float 0.01) "native cycles" expected c;
  let llvm = Cost_model.cycles Cost_model.llvm_base s in
  check_bool "llvm slower on compiled work" true (llvm > c);
  let fast = Cost_model.with_code_quality Cost_model.llvm_base 0.9 in
  check_bool "quality gain" true (Cost_model.cycles fast s < c)

let test_machine_accounting () =
  let m = Machine.create () in
  let before = Stats.snapshot m.Machine.stats in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 1;
  check_bool "cycles positive" true (Machine.cycles m > 0.);
  check_bool "cycles_since smaller" true
    (Machine.cycles_since m before <= Machine.cycles m);
  check_int "va accounted" Addr.page_size (Machine.va_bytes_used m)

(* ---- MMU property tests ---- *)

let prop_mmu_roundtrip =
  QCheck.Test.make ~name:"mmu: store/load roundtrip at random offsets"
    QCheck.(pair (int_bound (2 * Addr.page_size - 9)) (int_bound 1_000_000))
    (fun (off, v) ->
      let m = Machine.create () in
      let a = Kernel.mmap m ~pages:2 in
      Mmu.store m (a + off) ~width:8 v;
      Mmu.load m (a + off) ~width:8 = v)

let prop_tlb_transparent =
  QCheck.Test.make ~name:"mmu: repeated loads agree (TLB is transparent)"
    QCheck.(int_bound 100)
    (fun n ->
      let m = Machine.create ~tlb_entries:8 () in
      let a = Kernel.mmap m ~pages:32 in
      (* Touch many pages to force evictions, then re-check all. *)
      for i = 0 to 31 do
        Mmu.store m (a + (i * Addr.page_size)) ~width:8 (i + n)
      done;
      let ok = ref true in
      for i = 0 to 31 do
        if Mmu.load m (a + (i * Addr.page_size)) ~width:8 <> i + n then
          ok := false
      done;
      !ok)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vmm"
    [
      ( "addr",
        [
          Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic;
          Alcotest.test_case "pages_spanning" `Quick test_pages_spanning;
        ]
        @ qcheck [ prop_page_roundtrip; prop_pages_spanning_positive ] );
      ("perm", [ Alcotest.test_case "allows" `Quick test_perm_allows ]);
      ( "frames",
        [
          Alcotest.test_case "refcounting" `Quick test_frame_refcounting;
          Alcotest.test_case "bytes" `Quick test_frame_bytes;
          Alcotest.test_case "peak" `Quick test_frame_peak;
        ] );
      ( "page-table",
        [
          Alcotest.test_case "map/unmap/protect" `Quick test_page_table;
          Alcotest.test_case "errors" `Quick test_page_table_errors;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "eviction" `Quick test_tlb_eviction;
          Alcotest.test_case "invalidate/flush" `Quick
            test_tlb_invalidate_and_flush;
          Alcotest.test_case "reinsert" `Quick test_tlb_same_page_reinsert;
        ] );
      ( "kernel-mmu",
        [
          Alcotest.test_case "mmap + access" `Quick test_mmap_and_access;
          Alcotest.test_case "widths" `Quick test_access_widths;
          Alcotest.test_case "cross-page" `Quick test_cross_page_access;
          Alcotest.test_case "unmapped fault" `Quick test_unmapped_fault;
          Alcotest.test_case "mprotect fault" `Quick test_mprotect_fault;
          Alcotest.test_case "alias shares frames" `Quick
            test_alias_shares_frames;
          Alcotest.test_case "alias refcount" `Quick test_alias_refcount;
          Alcotest.test_case "mmap_fixed" `Quick test_mmap_fixed_replaces;
          Alcotest.test_case "syscall counting" `Quick test_syscall_counting;
          Alcotest.test_case "argument validation" `Quick
            test_kernel_argument_validation;
          Alcotest.test_case "alias at recycled VA" `Quick
            test_alias_at_recycled_location;
          Alcotest.test_case "multi-page alias" `Quick test_alias_multi_page;
          Alcotest.test_case "partial munmap" `Quick test_munmap_partial_range;
          Alcotest.test_case "kernel-mode access" `Quick
            test_exempt_access_ignores_permissions;
          Alcotest.test_case "probe" `Quick test_probe;
        ]
        @ qcheck [ prop_mmu_roundtrip; prop_tlb_transparent ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction_lru;
          Alcotest.test_case "physical indexing via aliases" `Quick
            test_cache_physical_indexing_through_mmu;
        ] );
      ( "exit",
        [
          Alcotest.test_case "reuse reads zero" `Quick
            test_exit_reuse_reads_zero;
          Alcotest.test_case "access after exit raises" `Quick
            test_exit_then_access_raises;
        ]
        @ qcheck [ prop_exit_chain_matches_fresh_pools ] );
      ( "cost",
        [
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "machine accounting" `Quick
            test_machine_accounting;
        ] );
    ]
