(* Tests for the runtime layer: the scheme interface, the workload API
   helpers, the concrete scheme constructors, and the fork-per-connection
   process model. *)

open Vmm
module Farm = Danguard_farm.Farm

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

let registry_count (s : Runtime.Scheme.t) name =
  Telemetry.Metrics.count
    (Stats.registry s.Runtime.Scheme.machine.Machine.stats)
    name

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
   | Runtime.Schemes.Shadow_pool _ -> ()
   | _ -> Alcotest.fail "static scheme should expose its pool and recycler");
  check_int "no allocs yet" 0 (registry_count st "elide.protected_allocs");
  (* The recoverable wrapper keeps its base scheme's internals. *)
  (match
     Runtime.Schemes.introspect
       (Runtime.Schemes.recoverable
          (Runtime.Schemes.shadow_pool_epoch (Machine.create ())))
   with
   | Runtime.Schemes.Shadow_pool_epoch _ -> ()
   | _ -> Alcotest.fail "ours-epoch+recover should introspect as epoch");
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
  let c = registry_count s in
  check_int "pools created" cycles (c "inferred.pools_created");
  check_int "pools destroyed" cycles (c "inferred.pools_destroyed");
  check_int "one page unmapped per pool" cycles (c "inferred.unmapped_pages");
  check_bool "peak is one pool's page" true
    (Telemetry.Metrics.gauge_value
       (Telemetry.Metrics.gauge
          (Stats.registry s.Runtime.Scheme.machine.Machine.stats)
          "inferred.peak_shadow_pages")
    = 1.0)

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

(* Sequential connections on the farm's one server loop, one shard, each
   a fresh shadow-pool machine. *)
let serve ~handler ~connections =
  (Farm.run
     ~make_scheme:(fun ~shard:_ ~trace:_ () ->
       Runtime.Schemes.shadow_pool (Machine.create ()))
     ~handler ~shards:1 ~connections ())
    .Farm.totals

let test_process_isolation () =
  (* Each connection gets a fresh machine: VA consumed by one connection
     does not accumulate into the next. *)
  let totals =
    serve
      ~handler:(fun _ scheme ->
        for _ = 1 to 20 do
          ignore (scheme.Runtime.Scheme.malloc 64)
        done)
      ~connections:5
  in
  check_int "connections" 5 totals.Farm.connections;
  check_bool "va bounded per connection" true
    (totals.Farm.max_va_bytes < 200 * Addr.page_size);
  check_int "no detections" 0 totals.Farm.detections

let test_process_detection_recorded () =
  let totals =
    serve
      ~handler:(fun i scheme ->
        let a = scheme.Runtime.Scheme.malloc 32 in
        scheme.Runtime.Scheme.free a;
        (* Connection 2 commits a use-after-free; the server survives. *)
        if i = 2 then ignore (scheme.Runtime.Scheme.load a ~width:8))
      ~connections:5
  in
  check_int "one child died diagnosed" 1 totals.Farm.detections;
  check_int "server completed all connections" 5
    totals.Farm.connections

let test_process_fork_cost () =
  let r =
    Runtime.Process.run_connection
      ~make_scheme:(fun () -> Runtime.Schemes.native (Machine.create ()))
      ~handler:(fun _ -> ())
  in
  check_bool "fork cost charged" true
    (r.Runtime.Process.cycles
     >= float_of_int Runtime.Process.fork_cost_instructions)

(* A child's exit is invisible to the simulation: every counter, the
   clock and the VA total read the same afterwards.  Its memory is gone:
   a load or store through the exited machine raises rather than
   reading a buffer the next connection now owns. *)
let test_process_exit () =
  let kept = ref None in
  let r =
    Runtime.Process.run_connection
      ~make_scheme:(fun () -> Runtime.Schemes.shadow_pool (Machine.create ()))
      ~handler:(fun scheme ->
        let a = scheme.Runtime.Scheme.malloc 64 in
        scheme.Runtime.Scheme.store a ~width:8 42;
        ignore (scheme.Runtime.Scheme.load a ~width:8);
        (* The "before" reading: the handler's last act, so nothing
           but the exit runs between it and the checks below. *)
        let m = scheme.Runtime.Scheme.machine in
        kept :=
          Some
            ( scheme,
              a,
              Stats.snapshot m.Machine.stats,
              Frame_table.peak_frames m.Machine.frames ))
  in
  let scheme, a, stats_before, peak_before = Option.get !kept in
  let m = scheme.Runtime.Scheme.machine in
  check_bool "counters unchanged by exit" true
    (Stats.snapshot m.Machine.stats = stats_before);
  check_bool "clock unchanged by exit" true
    (Machine.cycles m = r.Runtime.Process.cycles);
  check_int "va unchanged by exit" r.Runtime.Process.va_bytes
    (Machine.va_bytes_used m);
  check_int "peak frames kept" peak_before
    (Frame_table.peak_frames m.Machine.frames);
  check_int "no live frames" 0 (Frame_table.live_frames m.Machine.frames);
  let raises f =
    match f () with
    | _ -> false
    | exception Fault.Trap (Fault.Unmapped _) -> true
    | exception Invalid_argument _ -> true
  in
  check_bool "load after exit raises" true
    (raises (fun () -> Mmu.load m a ~width:8));
  check_bool "store after exit raises" true
    (raises (fun () -> Mmu.store m a ~width:8 1))

(* A handler that dies of something other than a violation still exits
   its machine. *)
let test_process_exit_on_exception () =
  let kept = ref None in
  (match
     Runtime.Process.run_connection
       ~make_scheme:(fun () -> Runtime.Schemes.native (Machine.create ()))
       ~handler:(fun scheme ->
         ignore (scheme.Runtime.Scheme.malloc 64);
         kept := Some scheme.Runtime.Scheme.machine;
         failwith "handler crashed")
   with
   | _ -> Alcotest.fail "the handler's exception must propagate"
   | exception Failure _ -> ());
  let m = Option.get !kept in
  check_int "frames returned" 0 (Frame_table.live_frames m.Machine.frames)

(* Serving connections recycles page buffers, page-table chunks and
   small tables instead of allocating them in the major heap.  Counted
   by the OCaml runtime on this domain, so deterministic: words
   allocated directly in the major heap, i.e. major minus promoted. *)
let max_direct_major_words_per_connection = 2048.

let test_connection_major_words () =
  let connections = 256 in
  List.iter
    (fun config ->
      List.iter
        (fun (server : Workload.Spec.server) ->
          let serve first =
            for conn = first to first + connections - 1 do
              ignore
                (Runtime.Process.run_connection
                   ~make_scheme:(fun () -> Harness.Experiment.make_scheme config ())
                   ~handler:(server.Workload.Spec.handler conn)
                  : Runtime.Process.connection_result)
            done
          in
          (* Warm the domain's pools, as a long-running server has. *)
          serve 0;
          let _, promoted0, major0 = Gc.counters () in
          serve connections;
          let _, promoted1, major1 = Gc.counters () in
          let direct =
            (major1 -. major0 -. (promoted1 -. promoted0))
            /. float_of_int connections
          in
          check_bool
            (Printf.sprintf "%s under %s: %.0f direct major words/connection"
               server.Workload.Spec.s_name
               (Runtime.Scheme_spec.label config)
               direct)
            true
            (direct < max_direct_major_words_per_connection))
        Workload.Servers.all)
    Runtime.Scheme_spec.[ ours; llvm_base ]

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
          Alcotest.test_case "exit" `Quick test_process_exit;
          Alcotest.test_case "exit on exception" `Quick
            test_process_exit_on_exception;
          Alcotest.test_case "major words per connection" `Quick
            test_connection_major_words;
        ] );
    ]
