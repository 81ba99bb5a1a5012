(* Tests for the workload catalogue: every benchmark and server model
   runs to completion under both the plain allocator and the full
   scheme, deterministically, and the fault-injection scenarios behave
   per scheme as the paper's taxonomy says they should. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let small_scale (b : Workload.Spec.batch) =
  max 2 (b.Workload.Spec.default_scale / 8)

let run_batch_under b make =
  let scheme = make (Machine.create ()) in
  b.Workload.Spec.run scheme ~scale:(small_scale b);
  scheme

let test_batch_runs_native (b : Workload.Spec.batch) () =
  ignore (run_batch_under b Runtime.Schemes.native)

let test_batch_runs_shadow (b : Workload.Spec.batch) () =
  let scheme = run_batch_under b Runtime.Schemes.shadow_pool in
  (* Allocation-bearing workloads must have paid the per-alloc syscall. *)
  let s = Stats.snapshot scheme.Runtime.Scheme.machine.Machine.stats in
  check_bool "used shadow pages" true (s.Stats.syscalls_mremap > 0)

let test_batch_no_false_positives (b : Workload.Spec.batch) () =
  (* Correct programs must run violation-free under the strictest
     checkers too: the bounds-checking combination and the capability
     scheme (whose tagged pointers must survive the workload's pointer
     handling). *)
  List.iter
    (fun make -> ignore (run_batch_under b make))
    [
      (fun m -> Runtime.Schemes.shadow_pool_spatial m);
      (fun m -> Runtime.Capability_check.scheme m);
    ]

let test_batch_deterministic (b : Workload.Spec.batch) () =
  let cycles () =
    let scheme = run_batch_under b Runtime.Schemes.shadow_pool in
    Machine.cycles scheme.Runtime.Scheme.machine
  in
  Alcotest.check (Alcotest.float 0.0) "same cycles twice" (cycles ()) (cycles ())

let test_server_runs (srv : Workload.Spec.server) () =
  let r = Harness.Experiment.run_server ~connections:3 ~shards:1 srv in
  check_int "no violations in correct servers" 0
    r.Danguard_farm.Farm.totals.Danguard_farm.Farm.detections;
  check_bool "did work" true (Harness.Experiment.total_cycles r > 0.)

let test_servers_fixed_alloc_counts () =
  (* The §4.3 claims are structural: count mremaps per connection. *)
  let allocs_per_connection (srv : Workload.Spec.server) =
    let scheme = Runtime.Schemes.shadow_pool (Machine.create ()) in
    srv.Workload.Spec.handler 0 scheme;
    (Stats.snapshot scheme.Runtime.Scheme.machine.Machine.stats)
      .Stats.syscalls_mremap
  in
  check_int "ghttpd: one allocation per connection" 1
    (allocs_per_connection Workload.Servers.ghttpd);
  let ftpd = allocs_per_connection Workload.Servers.ftpd in
  let per_command = ftpd / Workload.Servers.ftpd_commands_per_connection in
  check_bool
    (Printf.sprintf "ftpd: 5-6 allocs per command (%d)" per_command)
    true
    (per_command >= 5 && per_command <= 7);
  check_int "telnetd: 45 setup allocations"
    Workload.Servers.telnetd_setup_allocations
    (allocs_per_connection Workload.Servers.telnetd)

let test_prng_determinism () =
  let a = Workload.Prng.create ~seed:5 in
  let b = Workload.Prng.create ~seed:5 in
  for _ = 1 to 100 do
    check_int "same stream" (Workload.Prng.next a) (Workload.Prng.next b)
  done;
  let c = Workload.Prng.create ~seed:6 in
  check_bool "different seed differs" true
    (Workload.Prng.next a <> Workload.Prng.next c)

let prop_prng_below_in_range =
  QCheck.Test.make ~name:"prng: below stays in range"
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Workload.Prng.create ~seed in
      let v = Workload.Prng.below rng bound in
      v >= 0 && v < bound)

let test_catalog_lookup () =
  check_bool "finds gzip" true (Workload.Catalog.find_batch "gzip" <> None);
  check_bool "finds ftpd" true (Workload.Catalog.find_server "ftpd" <> None);
  check_bool "rejects junk" true (Workload.Catalog.find_batch "nope" = None);
  check_int "4 utilities" 4 (List.length Workload.Catalog.utilities);
  check_int "9 olden" 9 (List.length Workload.Catalog.olden);
  check_int "5 servers" 5 (List.length Workload.Catalog.servers)

let test_fault_injection_under_ours () =
  List.iter
    (fun (sc : Workload.Fault_injection.scenario) ->
      let scheme = Runtime.Schemes.shadow_pool (Machine.create ()) in
      match snd (sc.Workload.Fault_injection.inject scheme) with
      | Workload.Fault_injection.Detected _ -> ()
      | outcome ->
        Alcotest.fail
          (Printf.sprintf "%s under ours: %s"
             sc.Workload.Fault_injection.sc_name
             (Workload.Fault_injection.outcome_label outcome)))
    Workload.Fault_injection.all

let test_fault_injection_under_native () =
  let outcome_of (sc : Workload.Fault_injection.scenario) =
    snd
      (sc.Workload.Fault_injection.inject
         (Runtime.Schemes.native (Machine.create ())))
  in
  (match outcome_of Workload.Fault_injection.read_after_free with
   | Workload.Fault_injection.Silent _ -> ()
   | o ->
     Alcotest.fail
       ("native read-after-free: " ^ Workload.Fault_injection.outcome_label o));
  match outcome_of Workload.Fault_injection.double_free with
  | Workload.Fault_injection.Crashed _ -> ()
  | o ->
    Alcotest.fail
      ("native double-free: " ^ Workload.Fault_injection.outcome_label o)

let test_fault_injection_valgrind_gap () =
  let scheme () = Runtime.Valgrind_sim.scheme (Machine.create ()) in
  (match
     snd
       (Workload.Fault_injection.read_after_free.Workload.Fault_injection
        .inject (scheme ()))
   with
   | Workload.Fault_injection.Detected _ -> ()
   | o ->
     Alcotest.fail
       ("valgrind immediate: " ^ Workload.Fault_injection.outcome_label o));
  match
    snd
      ((Workload.Fault_injection.dangling_after_many_allocations 1500)
         .Workload.Fault_injection.inject (scheme ()))
  with
  | Workload.Fault_injection.Silent _ -> ()
  | o ->
    Alcotest.fail
      ("valgrind after churn should miss: "
       ^ Workload.Fault_injection.outcome_label o)

(* ---- traces ---- *)

let test_trace_roundtrip () =
  let t = Workload.Trace.generate ~seed:9 ~length:120 () in
  let text = Workload.Trace.to_string t in
  (match Workload.Trace.of_string text with
   | Ok t2 ->
     check_int "roundtrip length" (Workload.Trace.length t)
       (Workload.Trace.length t2);
     check_bool "roundtrip equal" true (t = t2)
   | Error e -> Alcotest.fail e)

let test_trace_parse_errors () =
  (match Workload.Trace.of_string "alloc 0 48\nbogus line\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected parse error");
  match Workload.Trace.of_string "# comment\n\nalloc 0 16 -\nfree 0\n" with
  | Ok t -> check_int "comments skipped" 2 (Workload.Trace.length t)
  | Error e -> Alcotest.fail e

let test_trace_replay_no_violations () =
  let t = Workload.Trace.generate ~seed:4 ~length:300 () in
  let r =
    Workload.Trace.replay t (Runtime.Schemes.shadow_pool (Machine.create ()))
  in
  check_int "correct trace has no violations" 0 r.Workload.Trace.violations

let prop_trace_schemes_agree =
  (* The heart of differential testing: identical traces must read
     identical values under every scheme, with zero violations. *)
  QCheck.Test.make ~name:"trace: all schemes agree on correct traces"
    ~count:15
    QCheck.(pair small_int (int_range 30 200))
    (fun (seed, length) ->
      let t = Workload.Trace.generate ~seed ~length () in
      let run make =
        let r = Workload.Trace.replay t (make (Machine.create ())) in
        (r.Workload.Trace.reads, r.Workload.Trace.violations)
      in
      let reference, v0 = run Runtime.Schemes.native in
      v0 = 0
      && List.for_all
           (fun make ->
             let reads, violations = run make in
             violations = 0 && reads = reference)
           [
             (fun m -> Runtime.Schemes.pa m);
             Runtime.Schemes.shadow_basic;
             (fun m -> Runtime.Schemes.shadow_pool m);
             (fun m -> Runtime.Efence.scheme m);
             (fun m -> Runtime.Valgrind_sim.scheme m);
             (fun m -> Runtime.Capability_check.scheme m);
           ])

let test_trace_recording_roundtrip () =
  (* Record a real workload's heap behaviour on one scheme, then replay
     the trace under others: the recorded program must replay cleanly and
     deterministically everywhere. *)
  let batch =
    match Workload.Catalog.find_batch "enscript" with
    | Some b -> b
    | None -> Alcotest.fail "enscript missing"
  in
  let wrapper, get_trace =
    Workload.Trace.record (Runtime.Schemes.native (Machine.create ()))
  in
  batch.Workload.Spec.run wrapper ~scale:25;
  let trace = get_trace () in
  check_bool "captured events" true (Workload.Trace.length trace > 100);
  (* Text roundtrip of a real recorded trace. *)
  (match Workload.Trace.of_string (Workload.Trace.to_string trace) with
   | Ok t2 -> check_bool "text roundtrip" true (t2 = trace)
   | Error e -> Alcotest.fail e);
  let replay make =
    Workload.Trace.replay trace (make (Machine.create ()))
  in
  let native = replay Runtime.Schemes.native in
  let ours = replay (fun m -> Runtime.Schemes.shadow_pool m) in
  check_int "no violations (native)" 0 native.Workload.Trace.violations;
  check_int "no violations (ours)" 0 ours.Workload.Trace.violations;
  check_bool "reads agree across schemes" true
    (native.Workload.Trace.reads = ours.Workload.Trace.reads)

let test_trace_recorder_attribution () =
  (* Pool allocations are attributed to their pool, top-level ones are
     not, and frees resolve interior bookkeeping correctly. *)
  let wrapper, get_trace =
    Workload.Trace.record (Runtime.Schemes.shadow_pool (Machine.create ()))
  in
  let a = wrapper.Runtime.Scheme.malloc 32 in
  Runtime.Workload_api.with_pool wrapper (fun pool ->
      let b = pool.Runtime.Scheme.pool_alloc 64 in
      wrapper.Runtime.Scheme.store (b + 8) ~width:8 5;
      ignore (wrapper.Runtime.Scheme.load (b + 8) ~width:8));
  wrapper.Runtime.Scheme.free a;
  let trace = get_trace () in
  let has p = List.exists p trace in
  check_bool "top-level alloc" true
    (has (function Workload.Trace.Alloc { pool = None; _ } -> true | _ -> false));
  check_bool "pooled alloc" true
    (has (function Workload.Trace.Alloc { pool = Some _; _ } -> true | _ -> false));
  check_bool "interior write recorded with offset" true
    (has (function
       | Workload.Trace.Write { offset = 8; _ } -> true
       | _ -> false));
  check_bool "free recorded" true
    (has (function Workload.Trace.Free _ -> true | _ -> false));
  check_bool "pool bracket recorded" true
    (has (function Workload.Trace.Pool_end _ -> true | _ -> false))

let test_trace_live_accounting () =
  let t =
    [
      Workload.Trace.Pool_begin { pool = 0 };
      Workload.Trace.Alloc { obj = 0; size = 16; pool = Some 0 };
      Workload.Trace.Pool_end { pool = 0 };
      Workload.Trace.Alloc { obj = 1; size = 16; pool = None };
      Workload.Trace.Alloc { obj = 2; size = 16; pool = None };
      Workload.Trace.Free { obj = 1 };
    ]
  in
  check_int "pool + free accounted" 1 (Workload.Trace.live_objects_at_end t)

let batch_cases =
  List.concat_map
    (fun (b : Workload.Spec.batch) ->
      let name = b.Workload.Spec.name in
      [
        Alcotest.test_case (name ^ " under native") `Quick
          (test_batch_runs_native b);
        Alcotest.test_case (name ^ " under ours") `Quick
          (test_batch_runs_shadow b);
        Alcotest.test_case (name ^ " deterministic") `Quick
          (test_batch_deterministic b);
        Alcotest.test_case (name ^ " strict checkers clean") `Quick
          (test_batch_no_false_positives b);
      ])
    Workload.Catalog.batches

let server_cases =
  List.map
    (fun (s : Workload.Spec.server) ->
      Alcotest.test_case (s.Workload.Spec.s_name ^ " serves") `Quick
        (test_server_runs s))
    Workload.Catalog.servers

let () =
  Alcotest.run "workload"
    [
      ("batches", batch_cases);
      ( "servers",
        server_cases
        @ [
            Alcotest.test_case "paper alloc counts" `Quick
              test_servers_fixed_alloc_counts;
          ] );
      ( "infra",
        [
          Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
          Alcotest.test_case "catalog" `Quick test_catalog_lookup;
          QCheck_alcotest.to_alcotest prop_prng_below_in_range;
        ] );
      ( "traces",
        [
          Alcotest.test_case "text roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "replay clean" `Quick
            test_trace_replay_no_violations;
          Alcotest.test_case "live accounting" `Quick
            test_trace_live_accounting;
          Alcotest.test_case "recording roundtrip" `Quick
            test_trace_recording_roundtrip;
          Alcotest.test_case "recorder attribution" `Quick
            test_trace_recorder_attribution;
          QCheck_alcotest.to_alcotest prop_trace_schemes_agree;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "ours detects all" `Quick
            test_fault_injection_under_ours;
          Alcotest.test_case "native misses/crashes" `Quick
            test_fault_injection_under_native;
          Alcotest.test_case "valgrind heuristic gap" `Quick
            test_fault_injection_valgrind_gap;
        ] );
    ]
