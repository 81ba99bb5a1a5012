(* The robustness suite: deterministic syscall fault injection
   (Fault_plan / Syscalls), bounded retry, the degradation governor's
   ladder, the governed schemes end-to-end, and the §3.4 exhaustion
   guards and reuse-policy edge cases that ride along. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let rule ?(calls = []) trigger error = { Fault_plan.calls; trigger; error }
let eagain = Fault_plan.Transient Fault_plan.Eagain
let enomem_fatal = Fault_plan.Fatal Fault_plan.Enomem

(* ---- Fault_plan ---- *)

let decisions plan ~calls =
  List.map (fun c -> Fault_plan.decide plan c ~va_bytes:0 <> None) calls

let test_plan_deterministic () =
  let mk () =
    Fault_plan.create ~seed:42 [ rule (Fault_plan.Rate 0.5) eagain ]
  in
  let calls = List.init 200 (fun _ -> Fault_plan.Mremap) in
  check_bool "same seed, same timeline" true
    (decisions (mk ()) ~calls = decisions (mk ()) ~calls);
  let other =
    Fault_plan.create ~seed:43 [ rule (Fault_plan.Rate 0.5) eagain ]
  in
  check_bool "different seed, different timeline" false
    (decisions (mk ()) ~calls = decisions other ~calls)

let test_plan_rate_bounds () =
  Alcotest.check_raises "rate > 1 rejected"
    (Invalid_argument "Fault_plan.create: Rate probability outside [0, 1]")
    (fun () -> ignore (Fault_plan.create [ rule (Fault_plan.Rate 1.5) eagain ]));
  let zero = Fault_plan.create [ rule (Fault_plan.Rate 0.) eagain ] in
  for _ = 1 to 100 do
    assert (Fault_plan.decide zero Fault_plan.Mmap ~va_bytes:0 = None)
  done;
  let one = Fault_plan.create [ rule (Fault_plan.Rate 1.) eagain ] in
  check_bool "rate 1 always fires" true
    (Fault_plan.decide one Fault_plan.Mmap ~va_bytes:0 <> None)

let test_plan_nth_and_burst () =
  let plan =
    Fault_plan.create
      [ rule ~calls:[ Fault_plan.Mremap ] (Fault_plan.Nth_call 3) eagain ]
  in
  let fired =
    List.init 5 (fun _ ->
        Fault_plan.decide plan Fault_plan.Mremap ~va_bytes:0 <> None)
  in
  Alcotest.(check (list bool)) "exactly the 3rd call"
    [ false; false; true; false; false ]
    fired;
  check_int "other calls don't advance the mremap counter" 0
    (Fault_plan.attempts plan Fault_plan.Mprotect);
  let burst =
    Fault_plan.create
      [ rule (Fault_plan.Burst { first = 2; length = 2 }) eagain ]
  in
  let fired =
    List.init 5 (fun _ ->
        Fault_plan.decide burst Fault_plan.Mprotect ~va_bytes:0 <> None)
  in
  Alcotest.(check (list bool)) "calls 2 and 3" [ false; true; true; false; false ]
    fired

let test_plan_va_budget () =
  let plan =
    Fault_plan.create [ rule (Fault_plan.Va_budget 4096) enomem_fatal ]
  in
  check_bool "under budget: no fault" true
    (Fault_plan.decide plan Fault_plan.Mmap ~va_bytes:4096 = None);
  check_bool "over budget: fires" true
    (Fault_plan.decide plan Fault_plan.Mmap ~va_bytes:4097 <> None)

let test_plan_none () =
  let plan = Fault_plan.none () in
  check_bool "has no rules" false (Fault_plan.has_rules plan);
  for _ = 1 to 50 do
    assert (Fault_plan.decide plan Fault_plan.Mprotect ~va_bytes:max_int = None)
  done;
  check_int "nothing injected" 0 (Fault_plan.injected plan)

(* ---- Syscalls boundary ---- *)

let test_syscalls_inject_and_count () =
  let fault_plan =
    Fault_plan.create
      [ rule ~calls:[ Fault_plan.Mremap ] (Fault_plan.Rate 1.) eagain ]
  in
  let m = Machine.create ~fault_plan () in
  let src = Kernel.mmap m ~pages:1 in
  (match Syscalls.mremap_alias m ~src ~pages:1 with
  | Error (Fault_plan.Transient Fault_plan.Eagain) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected injected EAGAIN");
  let s = Stats.snapshot m.Machine.stats in
  check_int "failure counted" 1 s.Stats.syscalls_failed;
  (* mmap is not covered by the rule *)
  (match Syscalls.mmap m ~pages:1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "uncovered call must succeed")

(* What a failed call must leave alone: address space handed out, the
   page table, and the perm of the page the test mapped. *)
let machine_view m page =
  ( Machine.va_bytes_used m,
    Page_table.mapped_pages m.Machine.page_table,
    Kernel.page_perm m page )

(* Every entry point, with the fault kind it belongs to, called on the
   mapped page [src] (and the mapped page [dst] where it needs two). *)
let entry_points =
  let unit_of r = Result.map ignore r in
  [
    ( "mmap", Fault_plan.Mmap,
      fun m ~src:_ ~dst:_ -> unit_of (Syscalls.mmap m ~pages:1) );
    ( "mmap_fixed", Fault_plan.Mmap_fixed,
      fun m ~src ~dst:_ -> Syscalls.mmap_fixed m ~addr:src ~pages:1 );
    ( "mremap_alias", Fault_plan.Mremap,
      fun m ~src ~dst:_ -> unit_of (Syscalls.mremap_alias m ~src ~pages:1) );
    ( "mremap_alias_slab", Fault_plan.Mremap,
      fun m ~src ~dst:_ ->
        unit_of (Syscalls.mremap_alias_slab m ~src ~pages:1 ~copies:4) );
    ( "mremap_alias_at", Fault_plan.Mremap,
      fun m ~src ~dst -> Syscalls.mremap_alias_at m ~src ~dst ~pages:1 );
    ( "mprotect", Fault_plan.Mprotect,
      fun m ~src ~dst:_ -> Syscalls.mprotect m ~addr:src ~pages:1 Perm.No_access );
    ( "munmap", Fault_plan.Munmap,
      fun m ~src ~dst:_ -> Syscalls.munmap m ~addr:src ~pages:1 );
  ]

(* Each raw-layer rejection is typed as EINVAL and changes nothing but
   the failure count: no syscall of its kind, no fresh address space,
   no mapping.  The four calls that need a mapped source are given an
   unmapped one. *)
let test_syscalls_einval_typed () =
  let m = Machine.create () in
  let src = Kernel.mmap m ~pages:1 in
  let unmapped = m.Machine.next_va in
  let unit_of r = Result.map ignore r in
  List.iter
    (fun (name, call) ->
      let view = machine_view m src in
      let before = Stats.snapshot m.Machine.stats in
      (match call () with
      | Error (Fault_plan.Fatal Fault_plan.Einval) -> ()
      | Ok _ | Error _ -> Alcotest.fail (name ^ ": expected Fatal Einval"));
      check_bool (name ^ ": machine unchanged") true (machine_view m src = view);
      check_bool (name ^ ": only the failure counted") true
        (Stats.snapshot m.Machine.stats
        = { before with Stats.syscalls_failed = before.Stats.syscalls_failed + 1 }))
    [
      ("mmap of 0 pages", fun () -> unit_of (Syscalls.mmap m ~pages:0));
      ( "unaligned mmap_fixed",
        fun () -> Syscalls.mmap_fixed m ~addr:(src + 8) ~pages:1 );
      ( "mremap_alias",
        fun () -> unit_of (Syscalls.mremap_alias m ~src:unmapped ~pages:1) );
      ( "mremap_alias_slab",
        fun () ->
          unit_of
            (Syscalls.mremap_alias_slab m ~src:unmapped ~pages:1 ~copies:4) );
      ( "mremap_alias_at",
        fun () -> Syscalls.mremap_alias_at m ~src:unmapped ~dst:src ~pages:1 );
      ( "mprotect",
        fun () -> Syscalls.mprotect m ~addr:unmapped ~pages:1 Perm.No_access );
      ("munmap", fun () -> Syscalls.munmap m ~addr:unmapped ~pages:1);
    ]

let count_kind (s : Stats.snapshot) = function
  | Fault_plan.Mmap | Fault_plan.Mmap_fixed ->
    { s with Stats.syscalls_mmap = s.Stats.syscalls_mmap + 1 }
  | Fault_plan.Mremap ->
    { s with Stats.syscalls_mremap = s.Stats.syscalls_mremap + 1 }
  | Fault_plan.Mprotect ->
    { s with Stats.syscalls_mprotect = s.Stats.syscalls_mprotect + 1 }
  | Fault_plan.Munmap ->
    { s with Stats.syscalls_munmap = s.Stats.syscalls_munmap + 1 }

(* For every call kind, an [Nth_call 1] rule fails the first call of
   that kind: the machine is untouched, and the attempt costs one
   syscall of its kind plus one counted failure. *)
let test_syscalls_first_call_injected () =
  List.iter
    (fun (name, kind, call) ->
      let fault_plan =
        Fault_plan.create
          [ rule ~calls:[ kind ] (Fault_plan.Nth_call 1) enomem_fatal ]
      in
      let m = Machine.create ~fault_plan () in
      let src = Kernel.mmap m ~pages:1 in
      let dst = Kernel.mmap m ~pages:1 in
      Mmu.store m src ~width:8 42;
      let view = machine_view m src in
      let before = Stats.snapshot m.Machine.stats in
      (match call m ~src ~dst with
      | Error e when e = enomem_fatal -> ()
      | Ok _ | Error _ -> Alcotest.fail (name ^ ": expected the injected ENOMEM"));
      check_bool (name ^ ": machine unchanged") true (machine_view m src = view);
      check_bool (name ^ ": one syscall of its kind and one failure") true
        (Stats.snapshot m.Machine.stats
        = count_kind
            { before with Stats.syscalls_failed = before.Stats.syscalls_failed + 1 }
            kind);
      check_int (name ^ ": backing kept") 42 (Mmu.load m src ~width:8);
      check_int (name ^ ": one fault injected") 1
        (Fault_plan.injected m.Machine.fault_plan))
    entry_points

let test_ok_or_raise () =
  Alcotest.check_raises "raises Syscall_failure"
    (Fault_plan.Syscall_failure { name = "x"; error = eagain })
    (fun () -> Syscalls.ok_or_raise ~name:"x" (Error eagain));
  check_int "passes Ok through" 7 (Syscalls.ok_or_raise ~name:"x" (Ok 7))

(* ---- Retry ---- *)

let counting_op ~fail_first error =
  let calls = ref 0 in
  let op () =
    incr calls;
    if !calls <= fail_first then Error error else Ok !calls
  in
  (calls, op)

let test_retry_transient_then_ok () =
  let m = Machine.create () in
  let calls, op = counting_op ~fail_first:2 eagain in
  (match Runtime.Retry.attempt m op with
  | Ok 3 -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected success on 3rd attempt");
  check_int "three attempts" 3 !calls;
  let s = Stats.snapshot m.Machine.stats in
  check_int "two retries counted" 2 s.Stats.syscall_retries;
  check_bool "backoff charged as instructions" true (s.Stats.instructions > 0)

let test_retry_fatal_immediate () =
  let m = Machine.create () in
  let calls, op = counting_op ~fail_first:5 enomem_fatal in
  (match Runtime.Retry.attempt m op with
  | Error (Fault_plan.Fatal Fault_plan.Enomem) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the fatal error back");
  check_int "no retry on fatal" 1 !calls;
  check_int "no retries counted" 0
    (Stats.snapshot m.Machine.stats).Stats.syscall_retries

let test_retry_attempt_cap () =
  let m = Machine.create () in
  let calls, op = counting_op ~fail_first:max_int eagain in
  (match Runtime.Retry.attempt m op with
  | Error (Fault_plan.Transient Fault_plan.Eagain) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected exhaustion");
  check_int "default cap: 4 attempts" 4 !calls

let test_retry_backoff_capped () =
  let m = Machine.create () in
  let policy =
    {
      Runtime.Retry.max_attempts = 10;
      backoff_instructions = 100;
      backoff_multiplier = 10;
      max_backoff_instructions = 300;
    }
  in
  let _, op = counting_op ~fail_first:max_int eagain in
  ignore (Runtime.Retry.attempt ~policy m op);
  (* charges: 100, then min(300, 1000)=300 seven more times *)
  check_int "backoff ceiling respected" (100 + (300 * 8))
    (Stats.snapshot m.Machine.stats).Stats.instructions

(* ---- Governor ---- *)

let gov_config =
  {
    Runtime.Governor.sample_period = 4;
    failure_threshold = 3;
    window = 8;
    recover_after = 5;
    probe_every = 10;
    cooldown = 6;
    va_soft_budget = max_int;
    ladder = [];
  }

let tick g = Runtime.Governor.on_alloc g

let test_governor_down_shift () =
  let m = Machine.create () in
  let g = Runtime.Governor.create ~config:gov_config m in
  check_bool "starts in Full" true
    (Runtime.Governor.mode g = Runtime.Governor.Full);
  for _ = 1 to 3 do
    tick g;
    Runtime.Governor.record_failure g ~reason:"test"
  done;
  (match Runtime.Governor.mode g with
  | Runtime.Governor.Sampled 4 -> ()
  | _ -> Alcotest.fail "expected Sampled 4 after 3 failures");
  check_int "one transition" 1
    (List.length (Runtime.Governor.transitions g));
  (* three more failures: down to Passthrough *)
  for _ = 1 to 3 do
    tick g;
    Runtime.Governor.record_failure g ~reason:"test"
  done;
  check_bool "then Passthrough" true
    (Runtime.Governor.mode g = Runtime.Governor.Passthrough)

let test_governor_recovery () =
  let m = Machine.create () in
  let g = Runtime.Governor.create ~config:gov_config m in
  for _ = 1 to 3 do
    tick g;
    Runtime.Governor.record_failure g ~reason:"test"
  done;
  (* successes under cooldown do not shift *)
  for _ = 1 to 5 do
    tick g;
    Runtime.Governor.record_success g
  done;
  check_bool "cooldown holds the ladder" true
    (Runtime.Governor.mode g <> Runtime.Governor.Full);
  for _ = 1 to 5 do
    tick g;
    Runtime.Governor.record_success g
  done;
  check_bool "recovers to Full" true
    (Runtime.Governor.mode g = Runtime.Governor.Full);
  let windows = Runtime.Governor.degraded_windows g in
  check_int "one closed degradation window" 1 (List.length windows);
  check_bool "window is closed" true
    (match windows with [ (_, Some _) ] -> true | _ -> false)

let test_governor_no_oscillation_under_burst () =
  let m = Machine.create () in
  let g = Runtime.Governor.create ~config:gov_config m in
  (* alternating failure bursts and short success runs: the cooldown and
     the exponential probe backoff must keep the ladder from flapping at
     a fixed frequency.  200 swinging ops with probe_every=10 would give
     ~40 transitions if every probe were retried immediately; backoff
     makes the count logarithmic. *)
  for _ = 1 to 34 do
    for _ = 1 to 3 do
      tick g;
      Runtime.Governor.record_failure g ~reason:"burst"
    done;
    for _ = 1 to 3 do
      tick g;
      Runtime.Governor.record_success g
    done
  done;
  check_bool "log-bounded transitions under 204 swinging ops" true
    (List.length (Runtime.Governor.transitions g) <= 10)

let test_governor_sampling_period () =
  let m = Machine.create () in
  let g = Runtime.Governor.create ~config:gov_config m in
  for _ = 1 to 3 do
    tick g;
    Runtime.Governor.record_failure g ~reason:"test"
  done;
  let protected_count = ref 0 in
  for _ = 1 to 40 do
    tick g;
    if Runtime.Governor.should_protect g then incr protected_count
  done;
  check_int "Sampled 4 protects 1 in 4" 10 !protected_count

let test_governor_passthrough_probe () =
  let m = Machine.create () in
  let g = Runtime.Governor.create ~config:gov_config m in
  for _ = 1 to 6 do
    tick g;
    Runtime.Governor.record_failure g ~reason:"test"
  done;
  check_bool "in Passthrough" true
    (Runtime.Governor.mode g = Runtime.Governor.Passthrough);
  for _ = 1 to gov_config.Runtime.Governor.probe_every do
    tick g
  done;
  (match Runtime.Governor.mode g with
  | Runtime.Governor.Sampled _ -> ()
  | _ -> Alcotest.fail "probe should step Passthrough up to Sampled")

let test_governor_va_clamp () =
  let config = { gov_config with Runtime.Governor.va_soft_budget = 0 } in
  let m = Machine.create () in
  ignore (Kernel.mmap m ~pages:1);
  let g = Runtime.Governor.create ~config m in
  tick g;
  (match Runtime.Governor.mode g with
  | Runtime.Governor.Sampled _ -> ()
  | _ -> Alcotest.fail "VA budget crossing must leave Full");
  (* enough successes to recover, past cooldown — but Full stays off *)
  for _ = 1 to 20 do
    tick g;
    Runtime.Governor.record_success g
  done;
  check_bool "clamped below Full forever" true
    (Runtime.Governor.mode g <> Runtime.Governor.Full)

let test_governor_mode_change_telemetry () =
  let sink = Telemetry.Sink.create ~capacity:64 () in
  let m = Machine.create ~trace:sink () in
  let g = Runtime.Governor.create ~config:gov_config m in
  for _ = 1 to 3 do
    tick g;
    Runtime.Governor.record_failure g ~reason:"test"
  done;
  let mode_changes =
    List.filter
      (fun (e : Telemetry.Event.t) ->
        match e.Telemetry.Event.kind with
        | Telemetry.Event.Mode_change _ -> true
        | _ -> false)
      (Telemetry.Sink.events sink)
  in
  check_int "shift emitted exactly once" 1 (List.length mode_changes)

(* ---- governed schemes end-to-end ---- *)

let test_governed_no_faults_detects () =
  let m = Machine.create () in
  let g = Runtime.Governed.shadow_pool m in
  let scheme = Runtime.Governed.scheme g in
  let p = scheme.Runtime.Scheme.malloc ~site:"t" 48 in
  scheme.Runtime.Scheme.store p ~width:8 1;
  scheme.Runtime.Scheme.free ~site:"t" p;
  (match scheme.Runtime.Scheme.load p ~width:8 with
  | _ -> Alcotest.fail "UAF must be detected with no faults"
  | exception Shadow.Report.Violation _ -> ());
  check_string "still in full mode" "full"
    (Runtime.Governor.mode_label
       (Runtime.Governor.mode (Runtime.Governed.governor g)))

let test_governed_survives_total_mremap_failure () =
  let fault_plan =
    Fault_plan.create
      [ rule ~calls:[ Fault_plan.Mremap ] (Fault_plan.Rate 1.) eagain ]
  in
  let m = Machine.create ~fault_plan () in
  let g = Runtime.Governed.shadow_pool m in
  let scheme = Runtime.Governed.scheme g in
  (* allocate, use, free a few hundred objects: must not raise *)
  for i = 1 to 300 do
    let p = scheme.Runtime.Scheme.malloc ~site:"t" 32 in
    scheme.Runtime.Scheme.store p ~width:8 i;
    check_int "data intact" i (scheme.Runtime.Scheme.load p ~width:8);
    scheme.Runtime.Scheme.free ~site:"t" p
  done;
  check_bool "ladder stepped down" true
    (Runtime.Governor.mode (Runtime.Governed.governor g)
    <> Runtime.Governor.Full);
  check_bool "unprotected allocs recorded" true
    (Runtime.Governed.unprotected_allocs g > 0)

let test_governed_miss_is_attributed () =
  let fault_plan =
    Fault_plan.create
      [ rule ~calls:[ Fault_plan.Mprotect ] (Fault_plan.Rate 1.) eagain ]
  in
  let m = Machine.create ~fault_plan () in
  let g = Runtime.Governed.shadow_pool m in
  let scheme = Runtime.Governed.scheme g in
  let p = scheme.Runtime.Scheme.malloc ~site:"t" 48 in
  scheme.Runtime.Scheme.store p ~width:8 1234;
  scheme.Runtime.Scheme.free ~site:"t" p;
  (* every mprotect failed, so the free could not protect: the UAF read
     goes through silently — but it must be attributable *)
  (match scheme.Runtime.Scheme.load p ~width:8 with
  | _ -> ()
  | exception Shadow.Report.Violation _ ->
    Alcotest.fail "free cannot have protected anything");
  check_bool "miss attributed to the unprotected free" true
    (Runtime.Governed.was_unprotected g p);
  check_int "unprotected free counted" 1 (Runtime.Governed.unprotected_frees g)

let test_governed_double_free_backstop () =
  let fault_plan =
    Fault_plan.create
      [ rule ~calls:[ Fault_plan.Mprotect ] (Fault_plan.Rate 1.) eagain ]
  in
  let m = Machine.create ~fault_plan () in
  let g = Runtime.Governed.shadow_pool m in
  let scheme = Runtime.Governed.scheme g in
  let p = scheme.Runtime.Scheme.malloc ~site:"t" 48 in
  scheme.Runtime.Scheme.free ~site:"t" p;
  (* pages never got protected, so the MMU cannot catch the second
     free; the registry-state software backstop must *)
  (match scheme.Runtime.Scheme.free ~site:"t" p with
  | () -> Alcotest.fail "double free after unprotected free missed"
  | exception
      Shadow.Report.Violation { Shadow.Report.kind = Shadow.Report.Double_free; _ }
    -> ()
  | exception Shadow.Report.Violation _ ->
    Alcotest.fail "wrong violation kind")

let test_governed_basic_variant () =
  let fault_plan =
    Fault_plan.create [ rule (Fault_plan.Rate 0.3) eagain ]
  in
  let m = Machine.create ~fault_plan () in
  let g = Runtime.Governed.shadow_basic m in
  let scheme = Runtime.Governed.scheme g in
  for i = 1 to 200 do
    let p = scheme.Runtime.Scheme.malloc ~site:"t" 24 in
    scheme.Runtime.Scheme.store p ~width:8 i;
    scheme.Runtime.Scheme.free ~site:"t" p
  done;
  check_bool "ran to completion" true true

(* ---- ungoverned schemes under faults raise, typed ---- *)

let test_plain_scheme_raises_typed () =
  let fault_plan =
    Fault_plan.create
      [ rule ~calls:[ Fault_plan.Mremap ] (Fault_plan.Rate 1.) eagain ]
  in
  let m = Machine.create ~fault_plan () in
  let scheme = Runtime.Schemes.shadow_pool m in
  match scheme.Runtime.Scheme.malloc ~site:"t" 48 with
  | _ -> Alcotest.fail "plain scheme has no fallback; must raise"
  | exception Fault_plan.Syscall_failure _ -> ()

(* ---- resilience campaign (one workload, smoke) ---- *)

let test_campaign_invariants () =
  let workloads =
    List.filter
      (fun (b : Workload.Spec.batch) -> b.Workload.Spec.name = "health")
      Workload.Catalog.olden
  in
  let rows = Harness.Resilience.campaign ~scale_divisor:8 ~workloads () in
  check_bool "has rows" true (rows <> []);
  check_bool "no undiagnosed crashes, all misses attributed" true
    (Harness.Resilience.ok rows);
  (* the no-fault plan must show full detection *)
  List.iter
    (fun (r : Harness.Resilience.row) ->
      if r.Harness.Resilience.plan = "none" then begin
        check_int "all probes detected under no faults" 3
          r.Harness.Resilience.probes_detected;
        check_string "ends in full mode" "full" r.Harness.Resilience.final_mode
      end)
    rows

(* ---- exhaustion guards (satellite) ---- *)

let test_exhaustion_guards () =
  let ok =
    Shadow.Exhaustion.seconds_until_exhaustion ~va_bytes:(2. ** 47.)
      ~page_bytes:4096 ~pages_per_second:1e6
  in
  check_bool "paper example still computes" true (ok > 0.);
  let expect_invalid name thunk =
    match thunk () with
    | (_ : float) -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "zero rate" (fun () ->
      Shadow.Exhaustion.seconds_until_exhaustion ~va_bytes:1e6 ~page_bytes:4096
        ~pages_per_second:0.);
  expect_invalid "negative rate" (fun () ->
      Shadow.Exhaustion.seconds_until_exhaustion ~va_bytes:1e6 ~page_bytes:4096
        ~pages_per_second:(-1.));
  expect_invalid "nan rate" (fun () ->
      Shadow.Exhaustion.seconds_until_exhaustion ~va_bytes:1e6 ~page_bytes:4096
        ~pages_per_second:Float.nan);
  expect_invalid "negative va" (fun () ->
      Shadow.Exhaustion.seconds_until_exhaustion ~va_bytes:(-1.)
        ~page_bytes:4096 ~pages_per_second:1e6);
  expect_invalid "zero page size" (fun () ->
      Shadow.Exhaustion.hours_until_exhaustion ~va_bytes:1e6 ~page_bytes:0
        ~pages_per_second:1e6);
  expect_invalid "infinite rate" (fun () ->
      Shadow.Exhaustion.hours_until_exhaustion ~va_bytes:1e6 ~page_bytes:4096
        ~pages_per_second:Float.infinity);
  expect_invalid "infinite va" (fun () ->
      Shadow.Exhaustion.hours_until_exhaustion ~va_bytes:Float.infinity
        ~page_bytes:4096 ~pages_per_second:1e6);
  expect_invalid "rate so small the duration overflows" (fun () ->
      Shadow.Exhaustion.hours_until_exhaustion ~va_bytes:(2. ** 47.)
        ~page_bytes:4096 ~pages_per_second:1e-300);
  expect_invalid "rate so large the byte rate overflows" (fun () ->
      Shadow.Exhaustion.hours_until_exhaustion ~va_bytes:(2. ** 47.)
        ~page_bytes:4096 ~pages_per_second:1e306)

(* ---- reuse-policy edge cases (satellite) ---- *)

let make_pool_with_recycler () =
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let recycler = Apa.Page_recycler.create () in
  let pool = Shadow.Shadow_pool.create ~recycler ~registry m in
  (m, pool)

let test_reuse_policy_zero_trigger () =
  let _, pool = make_pool_with_recycler () in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 0 })
      pool
  in
  (* trigger 0 means: reclaim on every free — even the first *)
  let p = Shadow.Shadow_pool.alloc pool ~site:"t" 48 in
  Shadow.Shadow_pool.free pool ~site:"t" p;
  Shadow.Reuse_policy.after_free policy;
  check_bool "reclaimed immediately" true
    (Shadow.Reuse_policy.reclaimed_pages policy > 0);
  check_int "no freed shadow pages retained" 0
    (Shadow.Shadow_pool.freed_shadow_pages pool)

let test_reuse_policy_gc_zero_live () =
  let m, pool = make_pool_with_recycler () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let policy =
    Shadow.Reuse_policy.create ~gc
      (Shadow.Reuse_policy.Conservative_gc
         { trigger_pages = 0; scan_cost_per_object = 1000 })
      pool
  in
  let p = Shadow.Shadow_pool.alloc pool ~site:"t" 48 in
  Shadow.Shadow_pool.free pool ~site:"t" p;
  let before = (Stats.snapshot m.Machine.stats).Stats.instructions in
  Shadow.Reuse_policy.after_free policy;
  check_int "gc ran" 1 (Shadow.Reuse_policy.gc_runs policy);
  (* No live object means no heap words: the scan covers only the
     (empty) root set. *)
  check_int "zero live objects: only the roots are scanned"
    (before + (2 * Roots.word_count roots))
    (Stats.snapshot m.Machine.stats).Stats.instructions;
  check_int "no freed shadow pages retained" 0
    (Shadow.Shadow_pool.freed_shadow_pages pool)

let test_reuse_policy_after_destroy () =
  let _, pool = make_pool_with_recycler () in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 0 })
      pool
  in
  let p = Shadow.Shadow_pool.alloc pool ~site:"t" 48 in
  Shadow.Shadow_pool.free pool ~site:"t" p;
  Shadow.Shadow_pool.destroy pool;
  (* the hook racing pooldestroy must be a no-op, not an error *)
  Shadow.Reuse_policy.after_free policy;
  check_int "nothing reclaimed post-destroy" 0
    (Shadow.Reuse_policy.reclaimed_pages policy)

let () =
  Alcotest.run "resilience"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "rate bounds" `Quick test_plan_rate_bounds;
          Alcotest.test_case "nth + burst" `Quick test_plan_nth_and_burst;
          Alcotest.test_case "va budget" `Quick test_plan_va_budget;
          Alcotest.test_case "none" `Quick test_plan_none;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "inject + count" `Quick
            test_syscalls_inject_and_count;
          Alcotest.test_case "EINVAL typed" `Quick test_syscalls_einval_typed;
          Alcotest.test_case "first call of each kind injected" `Quick
            test_syscalls_first_call_injected;
          Alcotest.test_case "ok_or_raise" `Quick test_ok_or_raise;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient then ok" `Quick
            test_retry_transient_then_ok;
          Alcotest.test_case "fatal immediate" `Quick test_retry_fatal_immediate;
          Alcotest.test_case "attempt cap" `Quick test_retry_attempt_cap;
          Alcotest.test_case "backoff ceiling" `Quick test_retry_backoff_capped;
        ] );
      ( "governor",
        [
          Alcotest.test_case "down-shift" `Quick test_governor_down_shift;
          Alcotest.test_case "recovery" `Quick test_governor_recovery;
          Alcotest.test_case "no oscillation" `Quick
            test_governor_no_oscillation_under_burst;
          Alcotest.test_case "sampling period" `Quick
            test_governor_sampling_period;
          Alcotest.test_case "passthrough probe" `Quick
            test_governor_passthrough_probe;
          Alcotest.test_case "va clamp" `Quick test_governor_va_clamp;
          Alcotest.test_case "mode-change telemetry" `Quick
            test_governor_mode_change_telemetry;
        ] );
      ( "governed",
        [
          Alcotest.test_case "no faults: detects" `Quick
            test_governed_no_faults_detects;
          Alcotest.test_case "survives 100% mremap failure" `Quick
            test_governed_survives_total_mremap_failure;
          Alcotest.test_case "miss attributed" `Quick
            test_governed_miss_is_attributed;
          Alcotest.test_case "double-free backstop" `Quick
            test_governed_double_free_backstop;
          Alcotest.test_case "basic variant" `Quick test_governed_basic_variant;
          Alcotest.test_case "plain scheme raises typed" `Quick
            test_plain_scheme_raises_typed;
          Alcotest.test_case "campaign invariants" `Slow
            test_campaign_invariants;
        ] );
      ( "exhaustion-guards",
        [ Alcotest.test_case "invalid inputs" `Quick test_exhaustion_guards ] );
      ( "reuse-policy-edges",
        [
          Alcotest.test_case "zero trigger" `Quick test_reuse_policy_zero_trigger;
          Alcotest.test_case "gc with zero live" `Quick
            test_reuse_policy_gc_zero_live;
          Alcotest.test_case "after destroy" `Quick
            test_reuse_policy_after_destroy;
        ] );
    ]
