(* Tests for the runtime layer: the scheme interface, the workload API
   helpers, the concrete scheme constructors, and the fork-per-connection
   process model. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* ---- schemes ---- *)

let test_native_pool_passthrough () =
  let m = Machine.create () in
  let s = Runtime.Schemes.native m in
  let pool = s.Runtime.Scheme.pool_create () in
  let a = pool.Runtime.Scheme.pool_alloc 32 in
  s.Runtime.Scheme.store a ~width:8 5;
  check_int "pool alloc is plain malloc" 5 (s.Runtime.Scheme.load a ~width:8);
  pool.Runtime.Scheme.pool_destroy ();
  (* Passthrough destroy is a no-op: the object stays readable. *)
  check_int "still alive after destroy" 5 (s.Runtime.Scheme.load a ~width:8);
  check_bool "no guarantee" false s.Runtime.Scheme.guarantees_detection

let test_pa_dummy_syscalls () =
  let count_dummies dummy =
    let m = Machine.create () in
    let s = Runtime.Schemes.pa ~config:{ Runtime.Schemes.dummy_syscalls = dummy } m in
    let a = s.Runtime.Scheme.malloc 32 in
    s.Runtime.Scheme.free a;
    (Stats.snapshot m.Machine.stats).Stats.syscalls_dummy
  in
  check_int "no dummies by default" 0 (count_dummies false);
  check_int "one per alloc + one per free" 2 (count_dummies true)

let test_pa_pool_destroy_reuses_va () =
  let m = Machine.create () in
  let s = Runtime.Schemes.pa m in
  let round () =
    let pool = s.Runtime.Scheme.pool_create () in
    let a = pool.Runtime.Scheme.pool_alloc 64 in
    pool.Runtime.Scheme.pool_destroy ();
    a
  in
  let a1 = round () in
  let a2 = round () in
  check_int "second pool reuses the first pool's addresses" a1 a2

let test_shadow_pool_scheme_detects () =
  let m = Machine.create () in
  let s = Runtime.Schemes.shadow_pool m in
  let a = s.Runtime.Scheme.malloc 32 in
  s.Runtime.Scheme.free a;
  (match s.Runtime.Scheme.load a ~width:8 with
   | _ -> Alcotest.fail "expected violation"
   | exception Shadow.Report.Violation _ -> ());
  check_bool "guarantee flag" true s.Runtime.Scheme.guarantees_detection

let test_scheme_introspection () =
  let m = Machine.create () in
  let s = Runtime.Schemes.shadow_pool m in
  (match Runtime.Schemes.introspect s with
   | Runtime.Schemes.Shadow_pool _ -> ()
   | _ -> Alcotest.fail "shadow-pool should expose its pool and recycler");
  let st =
    Runtime.Schemes.shadow_pool_static
      ~config:{ Runtime.Schemes.elide = (fun _ -> false) }
      (Machine.create ())
  in
  (match Runtime.Schemes.introspect st with
   | Runtime.Schemes.Shadow_pool_static { elision; _ } ->
     let e = elision () in
     check_int "no allocs yet" 0 e.Runtime.Schemes.protected_allocs
   | _ -> Alcotest.fail "static scheme should expose elision stats");
  let native = Runtime.Schemes.native (Machine.create ()) in
  check_bool "native is opaque" true
    (Runtime.Schemes.introspect native = Runtime.Schemes.Opaque)

let test_compute_accounting () =
  let m = Machine.create () in
  let s = Runtime.Schemes.native m in
  s.Runtime.Scheme.compute 123;
  check_int "instructions counted" 123
    (Stats.snapshot m.Machine.stats).Stats.instructions

(* Pools come and go (ftpd's per-command realpath pool): the epoch and
   inferred schemes drop a destroyed pool from their live lists, and
   their counters must still report every destroyed pool's work. *)
let test_destroyed_pools_still_counted () =
  let cycles = 100 in
  let churn (s : Runtime.Scheme.t) =
    for _ = 1 to cycles do
      let pool = s.pool_create () in
      pool.pool_free (pool.pool_alloc 32);
      pool.pool_destroy ()
    done
  in
  let s = Runtime.Schemes.shadow_pool_epoch (Machine.create ()) in
  churn s;
  (match Runtime.Schemes.introspect s with
   | Runtime.Schemes.Shadow_pool_epoch { epoch; _ } ->
     let e = epoch () in
     check_int "every destroy retired its epoch" cycles e.epochs_retired;
     check_int "every quarantined free completed" cycles e.epoch_retired_frees;
     check_int "one coalesced protect per pool" cycles e.coalesced_protects;
     check_int "nothing pending" 0 e.epoch_pending_frees;
     check_int "one slab miss per pool" cycles e.slab_misses
   | _ -> Alcotest.fail "epoch scheme should expose its counters");
  let s = Runtime.Schemes.shadow_pool_inferred (Machine.create ()) in
  churn s;
  match Runtime.Schemes.introspect s with
  | Runtime.Schemes.Shadow_pool_inferred { inferred; _ } ->
    let i = inferred () in
    check_int "pools created" cycles i.inferred_pools_created;
    check_int "pools destroyed" cycles i.inferred_pools_destroyed;
    check_int "one page unmapped per pool" cycles i.destroy_unmapped_pages;
    check_int "no pages left" 0 i.live_shadow_pages;
    check_int "peak is one pool's page" 1 i.peak_shadow_pages
  | _ -> Alcotest.fail "inferred scheme should expose its counters"

(* ---- workload API ---- *)

let test_workload_api_fields () =
  let s = Runtime.Schemes.native (Machine.create ()) in
  let a = s.Runtime.Scheme.malloc 64 in
  Runtime.Workload_api.store_field s a 3 99;
  check_int "field" 99 (Runtime.Workload_api.load_field s a 3);
  Runtime.Workload_api.store_byte s (a + 1) 7;
  check_int "byte" 7 (Runtime.Workload_api.load_byte s (a + 1))

let test_workload_api_bulk () =
  let s = Runtime.Schemes.native (Machine.create ()) in
  let a = s.Runtime.Scheme.malloc 256 in
  Runtime.Workload_api.fill_words s a ~words:10 ~value:3;
  check_int "sum" 30 (Runtime.Workload_api.sum_words s a ~words:10);
  Runtime.Workload_api.touch_bytes s a ~len:256 ~stride:16

let test_with_pool_destroys_on_exception () =
  let s = Runtime.Schemes.shadow_pool (Machine.create ()) in
  let seen = ref None in
  (try
     Runtime.Workload_api.with_pool s (fun pool ->
         let a = pool.Runtime.Scheme.pool_alloc 32 in
         seen := Some (pool, a);
         failwith "boom")
   with Failure _ -> ());
  match !seen with
  | Some (pool, _) ->
    (* The pool was destroyed by the bracket: further use must fail. *)
    (match pool.Runtime.Scheme.pool_alloc 8 with
     | _ -> Alcotest.fail "pool survived the exception"
     | exception Invalid_argument _ -> ())
  | None -> Alcotest.fail "body did not run"

(* ---- process model ---- *)

let test_process_isolation () =
  (* Each connection gets a fresh machine: VA consumed by one connection
     does not accumulate into the next. *)
  let result =
    Runtime.Process.serve
      ~make_scheme:(fun () -> Runtime.Schemes.shadow_pool (Machine.create ()))
      ~handler:(fun _ scheme ->
        for _ = 1 to 20 do
          ignore (scheme.Runtime.Scheme.malloc 64)
        done)
      ~connections:5
  in
  check_int "connections" 5 result.Runtime.Process.connections;
  check_bool "va bounded per connection" true
    (result.Runtime.Process.max_va_bytes_per_connection
     < 200 * Addr.page_size);
  check_int "no detections" 0 result.Runtime.Process.detections

let test_process_detection_recorded () =
  let result =
    Runtime.Process.serve
      ~make_scheme:(fun () -> Runtime.Schemes.shadow_pool (Machine.create ()))
      ~handler:(fun i scheme ->
        let a = scheme.Runtime.Scheme.malloc 32 in
        scheme.Runtime.Scheme.free a;
        (* Connection 2 commits a use-after-free; the server survives. *)
        if i = 2 then ignore (scheme.Runtime.Scheme.load a ~width:8))
      ~connections:5
  in
  check_int "one child died diagnosed" 1 result.Runtime.Process.detections;
  check_int "server completed all connections" 5
    result.Runtime.Process.connections

let test_process_fork_cost () =
  let r =
    Runtime.Process.run_connection
      ~make_scheme:(fun () -> Runtime.Schemes.native (Machine.create ()))
      ~handler:(fun _ -> ())
  in
  check_bool "fork cost charged" true
    (r.Runtime.Process.cycles
     >= float_of_int Runtime.Process.fork_cost_instructions)

let prop_scheme_uniformity =
  (* Every scheme executes the same little program with the same
     functional result. *)
  QCheck.Test.make ~name:"schemes: uniform functional behaviour" ~count:20
    QCheck.(int_range 1 50)
    (fun n ->
      let run make =
        let s = make (Machine.create ()) in
        let a = s.Runtime.Scheme.malloc (8 * (1 + (n mod 8))) in
        s.Runtime.Scheme.store a ~width:8 n;
        let v = s.Runtime.Scheme.load a ~width:8 in
        s.Runtime.Scheme.free a;
        v
      in
      let expected = n in
      run Runtime.Schemes.native = expected
      && run Runtime.Schemes.pa = expected
      && run Runtime.Schemes.shadow_basic = expected
      && run Runtime.Schemes.shadow_pool = expected
      && run Runtime.Efence.scheme = expected
      && run (fun m -> Runtime.Valgrind_sim.scheme m) = expected
      && run (fun m -> Runtime.Capability_check.scheme m) = expected)

let () =
  Alcotest.run "runtime"
    [
      ( "schemes",
        [
          Alcotest.test_case "native passthrough pools" `Quick
            test_native_pool_passthrough;
          Alcotest.test_case "pa dummy syscalls" `Quick test_pa_dummy_syscalls;
          Alcotest.test_case "pa VA reuse" `Quick test_pa_pool_destroy_reuses_va;
          Alcotest.test_case "shadow-pool detects" `Quick
            test_shadow_pool_scheme_detects;
          Alcotest.test_case "scheme introspection" `Quick
            test_scheme_introspection;
          Alcotest.test_case "compute accounting" `Quick
            test_compute_accounting;
          Alcotest.test_case "destroyed pools still counted" `Quick
            test_destroyed_pools_still_counted;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_scheme_uniformity ] );
      ( "workload-api",
        [
          Alcotest.test_case "fields" `Quick test_workload_api_fields;
          Alcotest.test_case "bulk" `Quick test_workload_api_bulk;
          Alcotest.test_case "with_pool bracket" `Quick
            test_with_pool_destroys_on_exception;
        ] );
      ( "process",
        [
          Alcotest.test_case "isolation" `Quick test_process_isolation;
          Alcotest.test_case "detection recorded" `Quick
            test_process_detection_recorded;
          Alcotest.test_case "fork cost" `Quick test_process_fork_cost;
        ] );
    ]
