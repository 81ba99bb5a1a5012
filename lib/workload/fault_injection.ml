open Runtime.Workload_api

type outcome =
  | Detected of Shadow.Report.t
  | Silent of int
  | Crashed of string
  | Crashed_degraded of string

type scenario = {
  sc_name : string;
  sc_description : string;
  inject : Runtime.Scheme.t -> Vmm.Addr.t * outcome;
}

let observe thunk =
  match thunk () with
  | v -> Silent v
  | exception Shadow.Report.Violation r -> Detected r
  | exception Vmm.Fault.Trap fault -> Crashed (Vmm.Fault.to_string fault)
  | exception Heap.Freelist_malloc.Heap_corruption msg -> Crashed msg
  | exception Vmm.Fault_plan.Syscall_failure { name; error } ->
    Crashed
      (Printf.sprintf "unhandled syscall failure in %s (%s)" name
         (Vmm.Fault_plan.error_label error))

let read_after_free =
  {
    sc_name = "read-after-free";
    sc_description = "free an object, read it immediately";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:alloc" 48 in
        store_field scheme p 0 1234;
        scheme.Runtime.Scheme.free ~site:"inject:free" p;
        (p, observe (fun () -> load_field scheme p 0)));
  }

let write_after_free =
  {
    sc_name = "write-after-free";
    sc_description = "free an object, write through the stale pointer";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:alloc" 48 in
        scheme.Runtime.Scheme.free ~site:"inject:free" p;
        ( p,
          observe (fun () ->
              store_field scheme p 0 99;
              0) ));
  }

let double_free =
  {
    sc_name = "double-free";
    sc_description = "free the same object twice";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:alloc" 48 in
        scheme.Runtime.Scheme.free ~site:"inject:first-free" p;
        ( p,
          observe (fun () ->
              scheme.Runtime.Scheme.free ~site:"inject:second-free" p;
              0) ));
  }

let invalid_free =
  {
    sc_name = "invalid-free";
    sc_description = "free an interior pointer of a live object";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:alloc" 64 in
        ( p,
          observe (fun () ->
              scheme.Runtime.Scheme.free ~site:"inject:bad-free" (p + 16);
              0) ));
  }

let dangling_after_many_allocations gap =
  {
    sc_name = Printf.sprintf "uaf-after-%d-allocs" gap;
    sc_description =
      "free, allocate until the memory is recycled, then read the stale \
       pointer";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:victim" 48 in
        store_field scheme p 0 1234;
        scheme.Runtime.Scheme.free ~site:"inject:free" p;
        (* Phase 1: alloc/free churn (of a different size class, so the
           victim's address does not circulate) overflows any quarantine
           and gets the victim's block really released to the allocator.
           Phase 2: live same-class allocations re-occupy the released
           memory — including the victim's — which is what defeats
           delay-reuse heuristics: the stale pointer now points into a
           live object. *)
        for i = 1 to gap do
          let q = scheme.Runtime.Scheme.malloc ~site:"inject:churn" 96 in
          store_field scheme q 0 (4000 + i);
          scheme.Runtime.Scheme.free ~site:"inject:churn-free" q
        done;
        let keep = ref [] in
        for i = 1 to 4 do
          let q = scheme.Runtime.Scheme.malloc ~site:"inject:occupy" 48 in
          store_field scheme q 0 (8000 + i);
          keep := q :: !keep
        done;
        (p, observe (fun () -> load_field scheme p 0)));
  }

(* Enough churn that the victim's memory is recycled before the stale
   read: the case that defeats quarantine heuristics but not the
   paper's scheme. *)
let read_after_free_with_reuse = dangling_after_many_allocations 1500

let use_after_pool_destroy =
  {
    sc_name = "use-after-pool-destroy";
    sc_description =
      "allocate from a pool, destroy the pool, read the stale pointer";
    inject =
      (fun scheme ->
        let h = scheme.Runtime.Scheme.pool_create () in
        let p = h.Runtime.Scheme.pool_alloc ~site:"inject:pool-alloc" 32 in
        store_field scheme p 0 3;
        h.Runtime.Scheme.pool_destroy ();
        (p, observe (fun () -> load_field scheme p 0)));
  }

let all =
  [
    read_after_free;
    write_after_free;
    double_free;
    invalid_free;
    read_after_free_with_reuse;
  ]

let overflow_read =
  {
    sc_name = "overflow-read";
    sc_description = "read 8 bytes past the end of a live 48-byte object";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:victim" 48 in
        store_field scheme p 0 7;
        (p, observe (fun () -> scheme.Runtime.Scheme.load (p + 48) ~width:8)));
  }

let overflow_write =
  {
    sc_name = "overflow-write";
    sc_description = "write 8 bytes past the end of a live 48-byte object";
    inject =
      (fun scheme ->
        let p = scheme.Runtime.Scheme.malloc ~site:"inject:victim" 48 in
        ( p,
          observe (fun () ->
              scheme.Runtime.Scheme.store (p + 48) ~width:8 1;
              0) ));
  }

let spatial = [ overflow_read; overflow_write ]

let outcome_label = function
  | Detected r -> "DETECTED: " ^ Shadow.Report.kind_label r.Shadow.Report.kind
  | Silent v -> Printf.sprintf "MISSED (read %d)" v
  | Crashed msg -> "CRASHED: " ^ msg
  | Crashed_degraded msg -> "CRASHED (degraded mode): " ^ msg

let reclassify ~degraded = function
  | Crashed msg when degraded -> Crashed_degraded msg
  | outcome -> outcome

