(* Tests for the pool-allocation runtime: the shared page recycler and
   the poolinit/poolalloc/poolfree/pooldestroy lifecycle with its three
   reclamation policies. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* ---- Page recycler ---- *)

let test_recycler_roundtrip () =
  let r = Apa.Page_recycler.create () in
  check_bool "empty take" true (Apa.Page_recycler.take r ~pages:1 = None);
  Apa.Page_recycler.put r ~base:(Addr.of_page 10) ~pages:4;
  check_int "available" 4 (Apa.Page_recycler.available_pages r);
  (match Apa.Page_recycler.take r ~pages:4 with
   | Some base -> check_int "exact range back" (Addr.of_page 10) base
   | None -> Alcotest.fail "take failed");
  check_int "drained" 0 (Apa.Page_recycler.available_pages r)

let test_recycler_split () =
  let r = Apa.Page_recycler.create () in
  Apa.Page_recycler.put r ~base:(Addr.of_page 20) ~pages:6;
  (match Apa.Page_recycler.take r ~pages:2 with
   | Some base -> check_int "head of range" (Addr.of_page 20) base
   | None -> Alcotest.fail "take failed");
  check_int "leftover stored" 4 (Apa.Page_recycler.available_pages r);
  (match Apa.Page_recycler.take r ~pages:4 with
   | Some base -> check_int "tail reused" (Addr.of_page 22) base
   | None -> Alcotest.fail "tail take failed")

let test_recycler_too_small () =
  let r = Apa.Page_recycler.create () in
  Apa.Page_recycler.put r ~base:(Addr.of_page 1) ~pages:2;
  check_bool "no big-enough range" true (Apa.Page_recycler.take r ~pages:3 = None);
  check_int "counters" 2 (Apa.Page_recycler.total_recycled_pages r);
  check_int "nothing reused" 0 (Apa.Page_recycler.total_reused_pages r)

(* ---- Pool lifecycle ---- *)

let test_pool_alloc_free () =
  let m = Machine.create () in
  let pool = Apa.Pool.create ~reclaim:Apa.Pool.Leak m in
  let a = Apa.Pool.alloc pool 64 in
  Mmu.store m a ~width:8 11;
  check_int "readback" 11 (Mmu.load m a ~width:8);
  check_int "live" 1 (Apa.Pool.live_blocks pool);
  Apa.Pool.dealloc pool a;
  check_int "freed" 0 (Apa.Pool.live_blocks pool);
  let b = Apa.Pool.alloc pool 64 in
  check_int "pool-internal reuse" a b

let test_pool_destroy_recycles () =
  let m = Machine.create () in
  let r = Apa.Page_recycler.create () in
  let pool = Apa.Pool.create ~arena_pages:4 ~reclaim:(Apa.Pool.Recycle r) m in
  ignore (Apa.Pool.alloc pool 64);
  let owned = Apa.Pool.owned_pages pool in
  check_bool "owns pages" true (owned > 0);
  Apa.Pool.destroy pool;
  check_int "all pages recycled" owned (Apa.Page_recycler.available_pages r);
  check_bool "destroyed" true (Apa.Pool.is_destroyed pool)

let test_pool_va_reuse_across_pools () =
  let m = Machine.create () in
  let r = Apa.Page_recycler.create () in
  let make () = Apa.Pool.create ~arena_pages:4 ~reclaim:(Apa.Pool.Recycle r) m in
  let p1 = make () in
  let a1 = Apa.Pool.alloc p1 64 in
  Apa.Pool.destroy p1;
  let p2 = make () in
  let a2 = Apa.Pool.alloc p2 64 in
  check_int "second pool reuses the same virtual page" a1 a2;
  (* Reuse must come with fresh contents (new physical backing). *)
  check_int "fresh backing" 0 (Mmu.load m (a2 + 8) ~width:8)

(* Fail the next re-backing of a recycled range. *)
let refuse_rebacking m =
  m.Machine.fault_plan <-
    Fault_plan.create
      [
        {
          Fault_plan.calls = [ Fault_plan.Mmap_fixed ];
          trigger = Fault_plan.Nth_call 1;
          error = Fault_plan.Fatal Fault_plan.Enomem;
        };
      ]

let test_pool_rebacking_refused () =
  let m = Machine.create () in
  let r = Apa.Page_recycler.create () in
  let make () = Apa.Pool.create ~arena_pages:4 ~reclaim:(Apa.Pool.Recycle r) m in
  let p1 = make () in
  let a1 = Apa.Pool.alloc p1 64 in
  Apa.Pool.destroy p1;
  refuse_rebacking m;
  let p2 = make () in
  let a2 = Apa.Pool.alloc p2 64 in
  check_int "the refusal was injected" 1 (Fault_plan.injected m.Machine.fault_plan);
  check_bool "second pool maps fresh pages" true (a2 <> a1);
  check_int "fresh backing" 0 (Mmu.load m (a2 + 8) ~width:8);
  check_int "refused range back on the free list" 4
    (Apa.Page_recycler.available_pages r);
  check_int "refused round trip not counted as reuse" 0
    (Apa.Page_recycler.total_reused_pages r);
  let p3 = make () in
  check_int "a later pool reuses the range" a1 (Apa.Pool.alloc p3 64)

let test_pool_unmap_policy () =
  let m = Machine.create () in
  let pool = Apa.Pool.create ~arena_pages:2 ~reclaim:Apa.Pool.Unmap m in
  let a = Apa.Pool.alloc pool 64 in
  Apa.Pool.destroy pool;
  (match Mmu.load m a ~width:8 with
   | _ -> Alcotest.fail "expected unmapped fault"
   | exception Fault.Trap (Fault.Unmapped _) -> ()
   | exception Fault.Trap _ -> Alcotest.fail "wrong fault")

let test_pool_frames_released_on_reuse () =
  let m = Machine.create () in
  let r = Apa.Page_recycler.create () in
  let p1 = Apa.Pool.create ~arena_pages:4 ~reclaim:(Apa.Pool.Recycle r) m in
  ignore (Apa.Pool.alloc p1 64);
  Apa.Pool.destroy p1;
  let frames_idle = Frame_table.live_frames m.Machine.frames in
  let p2 = Apa.Pool.create ~arena_pages:4 ~reclaim:(Apa.Pool.Recycle r) m in
  ignore (Apa.Pool.alloc p2 64);
  (* Reusing the recycled range rebinds it to fresh frames and releases
     the old ones: steady state, not growth. *)
  check_int "frames stable across pool generations" frames_idle
    (Frame_table.live_frames m.Machine.frames)

let test_destroyed_pool_rejects_use () =
  let m = Machine.create () in
  let pool = Apa.Pool.create ~reclaim:Apa.Pool.Leak m in
  Apa.Pool.destroy pool;
  Alcotest.check_raises "alloc after destroy"
    (Invalid_argument "Pool.alloc: pool already destroyed") (fun () ->
      ignore (Apa.Pool.alloc pool 8));
  Alcotest.check_raises "double destroy"
    (Invalid_argument "Pool.destroy: pool already destroyed") (fun () ->
      Apa.Pool.destroy pool)

let test_elem_size_hint () =
  let m = Machine.create () in
  let pool = Apa.Pool.create ~elem_size:24 ~reclaim:Apa.Pool.Leak m in
  check_bool "hint recorded" true (Apa.Pool.elem_size pool = Some 24);
  (* The hint does not restrict sizes. *)
  ignore (Apa.Pool.alloc pool 100)

let prop_pool_generations =
  QCheck.Test.make ~name:"pool: repeated create/use/destroy bounds VA"
    ~count:20
    QCheck.(int_range 2 12)
    (fun generations ->
      let m = Machine.create () in
      let r = Apa.Page_recycler.create () in
      for _ = 1 to generations do
        let p = Apa.Pool.create ~arena_pages:2 ~reclaim:(Apa.Pool.Recycle r) m in
        for i = 1 to 20 do
          let a = Apa.Pool.alloc p (16 + (i mod 4 * 16)) in
          Mmu.store m a ~width:8 i
        done;
        Apa.Pool.destroy p
      done;
      (* VA consumption must not scale with the generation count: every
         generation after the first reuses recycled ranges. *)
      Machine.va_bytes_used m <= 8 * Addr.page_size * 4)

let () =
  Alcotest.run "apa"
    [
      ( "recycler",
        [
          Alcotest.test_case "roundtrip" `Quick test_recycler_roundtrip;
          Alcotest.test_case "split" `Quick test_recycler_split;
          Alcotest.test_case "too small" `Quick test_recycler_too_small;
        ] );
      ( "pool",
        [
          Alcotest.test_case "alloc/free" `Quick test_pool_alloc_free;
          Alcotest.test_case "destroy recycles" `Quick
            test_pool_destroy_recycles;
          Alcotest.test_case "VA reuse across pools" `Quick
            test_pool_va_reuse_across_pools;
          Alcotest.test_case "refused re-backing takes fresh pages" `Quick
            test_pool_rebacking_refused;
          Alcotest.test_case "unmap policy" `Quick test_pool_unmap_policy;
          Alcotest.test_case "frames steady" `Quick
            test_pool_frames_released_on_reuse;
          Alcotest.test_case "destroyed rejects use" `Quick
            test_destroyed_pool_rejects_use;
          Alcotest.test_case "elem size hint" `Quick test_elem_size_hint;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_pool_generations ] );
    ]
