(* Tests for the related-work baselines: Electric Fence, the
   Valgrind-style quarantine checker, and the capability-store checker —
   in particular the detection-guarantee differences the paper's §5
   argues about. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let expect_violation name kind_pred thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected a violation")
  | exception Shadow.Report.Violation r ->
    check_bool (name ^ ": kind") true (kind_pred r.Shadow.Report.kind)

let is_uaf = function Shadow.Report.Use_after_free _ -> true | _ -> false
let is_double = function Shadow.Report.Double_free -> true | _ -> false

(* ---- Electric Fence ---- *)

let efence () = Runtime.Efence.scheme (Machine.create ())

let test_efence_roundtrip () =
  let s = efence () in
  let p = s.Runtime.Scheme.malloc 40 in
  s.Runtime.Scheme.store p ~width:8 5;
  check_int "readback" 5 (s.Runtime.Scheme.load p ~width:8)

let test_efence_detects_uaf () =
  let s = efence () in
  let p = s.Runtime.Scheme.malloc 40 in
  s.Runtime.Scheme.free p;
  expect_violation "efence uaf" is_uaf (fun () ->
      s.Runtime.Scheme.load p ~width:8)

let test_efence_detects_double_free () =
  let s = efence () in
  let p = s.Runtime.Scheme.malloc 40 in
  s.Runtime.Scheme.free p;
  expect_violation "efence double free" is_double (fun () ->
      s.Runtime.Scheme.free p;
      0)

let test_efence_guard_page_catches_overflow () =
  let s = efence () in
  let p = s.Runtime.Scheme.malloc 40 in
  (* Past the object's last page lies the protected guard page. *)
  let guard = Addr.page_base p + Addr.page_size in
  expect_violation "guard page"
    (function Shadow.Report.Wild_access _ -> true | _ -> false)
    (fun () -> s.Runtime.Scheme.load guard ~width:8)

let test_efence_physical_blowup () =
  (* The flaw the paper fixes: one physical frame per object. *)
  let s_ef = efence () in
  for _ = 1 to 400 do
    ignore (s_ef.Runtime.Scheme.malloc 16)
  done;
  let ef_frames =
    Frame_table.peak_frames s_ef.Runtime.Scheme.machine.Machine.frames
  in
  let m = Machine.create () in
  let s_ours = Runtime.Schemes.shadow_basic m in
  for _ = 1 to 400 do
    ignore (s_ours.Runtime.Scheme.malloc 16)
  done;
  let our_frames = Frame_table.peak_frames m.Machine.frames in
  check_bool
    (Printf.sprintf "efence frames (%d) far exceed ours (%d)" ef_frames
       our_frames)
    true
    (ef_frames > 5 * our_frames)

let test_efence_one_byte_overrun () =
  (* End-of-page placement: even +1 past the object hits the guard. *)
  let s = efence () in
  let p = s.Runtime.Scheme.malloc 40 in
  expect_violation "one-byte overrun"
    (function Shadow.Report.Wild_access _ -> true | _ -> false)
    (fun () -> s.Runtime.Scheme.load (p + 40) ~width:1)

(* ---- combined spatial+temporal scheme ---- *)

let spatial () = Runtime.Schemes.shadow_pool_spatial (Machine.create ())

let test_spatial_in_bounds_ok () =
  let s = spatial () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.store p ~width:8 5;
  s.Runtime.Scheme.store (p + 40) ~width:8 6;
  check_int "first" 5 (s.Runtime.Scheme.load p ~width:8);
  check_int "last" 6 (s.Runtime.Scheme.load (p + 40) ~width:8)

let test_spatial_overflow_detected () =
  let s = spatial () in
  let p = s.Runtime.Scheme.malloc 48 in
  (match s.Runtime.Scheme.load (p + 48) ~width:8 with
   | _ -> Alcotest.fail "overflow read not detected"
   | exception Shadow.Report.Violation r ->
     (match r.Shadow.Report.kind, r.Shadow.Report.object_info with
      | Shadow.Report.Out_of_bounds Perm.Read, Some info ->
        check_int "offset diagnosed" 48 info.Shadow.Report.offset
      | _ -> Alcotest.fail "wrong kind or missing info"));
  match s.Runtime.Scheme.store (p + 56) ~width:8 1 with
  | () -> Alcotest.fail "overflow write not detected"
  | exception Shadow.Report.Violation { Shadow.Report.kind = Shadow.Report.Out_of_bounds Perm.Write; _ } ->
    ()
  | exception Shadow.Report.Violation _ -> Alcotest.fail "wrong kind"

let test_spatial_straddling_access_detected () =
  (* A wide access that begins in bounds but ends past the object. *)
  let s = spatial () in
  let p = s.Runtime.Scheme.malloc 48 in
  match s.Runtime.Scheme.load (p + 44) ~width:8 with
  | _ -> Alcotest.fail "straddling access not detected"
  | exception Shadow.Report.Violation { Shadow.Report.kind = Shadow.Report.Out_of_bounds _; _ } ->
    ()
  | exception Shadow.Report.Violation _ -> Alcotest.fail "wrong kind"

let test_spatial_still_catches_temporal () =
  let s = spatial () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.free p;
  expect_violation "uaf still caught" is_uaf (fun () ->
      s.Runtime.Scheme.load p ~width:8);
  expect_violation "double free still caught" is_double (fun () ->
      s.Runtime.Scheme.free p;
      0)

let test_spatial_check_cost_charged () =
  let s = spatial () in
  let machine = s.Runtime.Scheme.machine in
  let p = s.Runtime.Scheme.malloc 48 in
  let before = (Stats.snapshot machine.Machine.stats).Stats.instructions in
  ignore (s.Runtime.Scheme.load p ~width:8);
  check_bool "bounds check instructions" true
    ((Stats.snapshot machine.Machine.stats).Stats.instructions - before >= 6)

(* ---- Valgrind model ---- *)

let valgrind ?quarantine_blocks () =
  Runtime.Valgrind_sim.scheme ?quarantine_blocks (Machine.create ())

let test_valgrind_roundtrip () =
  let s = valgrind () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.store p ~width:8 21;
  check_int "readback" 21 (s.Runtime.Scheme.load p ~width:8)

let test_valgrind_detects_immediate_uaf () =
  let s = valgrind () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.free p;
  expect_violation "valgrind uaf in quarantine" is_uaf (fun () ->
      s.Runtime.Scheme.load p ~width:8)

let test_valgrind_misses_after_reuse () =
  (* The heuristic gap: a tiny quarantine, enough churn to recycle the
     block, and the stale read goes through silently. *)
  let s = valgrind ~quarantine_blocks:2 () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.store p ~width:8 1234;
  s.Runtime.Scheme.free p;
  (* Overflow the quarantine with a different size class, then
     re-occupy the released block with a live allocation. *)
  for i = 1 to 10 do
    let q = s.Runtime.Scheme.malloc 96 in
    s.Runtime.Scheme.store q ~width:8 (9000 + i);
    s.Runtime.Scheme.free q
  done;
  for i = 1 to 4 do
    let q = s.Runtime.Scheme.malloc 48 in
    s.Runtime.Scheme.store q ~width:8 (9500 + i)
  done;
  (match s.Runtime.Scheme.load p ~width:8 with
   | v -> check_bool "silently read reused memory" true (v <> 1234)
   | exception Shadow.Report.Violation _ ->
     Alcotest.fail "expected the heuristic to miss after reuse")

let test_valgrind_detects_double_free () =
  let s = valgrind () in
  let p = s.Runtime.Scheme.malloc 32 in
  s.Runtime.Scheme.free p;
  expect_violation "valgrind double free" is_double (fun () ->
      s.Runtime.Scheme.free p;
      0)

let test_valgrind_overhead_charged () =
  let s = valgrind () in
  let machine = s.Runtime.Scheme.machine in
  let p = s.Runtime.Scheme.malloc 32 in
  let before = (Stats.snapshot machine.Machine.stats).Stats.instructions in
  ignore (s.Runtime.Scheme.load p ~width:8);
  s.Runtime.Scheme.compute 100;
  let after = (Stats.snapshot machine.Machine.stats).Stats.instructions in
  (* One checked access (60) plus 100 instructions under 12x DBT. *)
  check_bool "instrumentation cost" true (after - before >= 60 + 1200)

let test_valgrind_extra_memory () =
  let s = valgrind () in
  let p = s.Runtime.Scheme.malloc 4096 in
  s.Runtime.Scheme.free p;
  check_bool "quarantine + shadow memory accounted" true
    (s.Runtime.Scheme.extra_memory_bytes () >= 4096)

(* ---- Capability checker ---- *)

let capability () = Runtime.Capability_check.scheme (Machine.create ())

let test_capability_roundtrip () =
  let s = capability () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.store p ~width:8 77;
  check_int "readback" 77 (s.Runtime.Scheme.load p ~width:8);
  (* Pointer arithmetic preserves the capability tag. *)
  s.Runtime.Scheme.store (p + 16) ~width:8 78;
  check_int "offset readback" 78 (s.Runtime.Scheme.load (p + 16) ~width:8)

let test_capability_detects_uaf_even_after_reuse () =
  let s = capability () in
  let p = s.Runtime.Scheme.malloc 48 in
  s.Runtime.Scheme.free p;
  for _ = 1 to 50 do
    let q = s.Runtime.Scheme.malloc 48 in
    s.Runtime.Scheme.store q ~width:8 1
  done;
  expect_violation "capability uaf survives reuse" is_uaf (fun () ->
      s.Runtime.Scheme.load p ~width:8)

let test_capability_double_free () =
  let s = capability () in
  let p = s.Runtime.Scheme.malloc 32 in
  s.Runtime.Scheme.free p;
  expect_violation "capability double free" is_double (fun () ->
      s.Runtime.Scheme.free p;
      0)

let test_capability_memory_overhead () =
  let s = capability () in
  for _ = 1 to 100 do
    ignore (s.Runtime.Scheme.malloc 16)
  done;
  check_bool "capability store grows" true
    (s.Runtime.Scheme.extra_memory_bytes () >= 100 * 48)

let test_capability_invalid_free () =
  let s = capability () in
  let p = s.Runtime.Scheme.malloc 64 in
  expect_violation "interior free"
    (function Shadow.Report.Invalid_free -> true | _ -> false)
    (fun () ->
      s.Runtime.Scheme.free (p + 8);
      0)

(* ---- per-operation check costs ---- *)

(* The exact [vmm.instructions] each software check charges: one row
   per scheme and operation, measured as the instruction delta of that
   one operation on a fresh machine. *)
let instructions (s : Runtime.Scheme.t) =
  (Stats.snapshot s.Runtime.Scheme.machine.Machine.stats).Stats.instructions

let charged s op =
  let before = instructions s in
  op ();
  instructions s - before

let fresh spec = Runtime.Scheme_spec.build spec (Machine.create ())

let epoch_drain s =
  match Runtime.Schemes.introspect s with
  | Runtime.Schemes.Shadow_pool_epoch { drain; _ } -> drain ()
  | _ -> Alcotest.fail "ours-epoch carries no epoch introspection"

let check_cost_rows =
  let open Runtime.Scheme_spec in
  let load s p () = ignore (s.Runtime.Scheme.load p ~width:8) in
  let store s p () = s.Runtime.Scheme.store p ~width:8 1 in
  let free s p () = s.Runtime.Scheme.free p in
  (* [op] on a fresh scheme holding one live 48-byte object. *)
  let on_live spec op () =
    let s = fresh spec in
    let p = s.Runtime.Scheme.malloc 48 in
    charged s (op s p)
  in
  (* The same, with one more object's free pending in the epoch,
     optionally drained before [op]. *)
  let on_epoch ~drain op () =
    let s = fresh ours_epoch in
    let p = s.Runtime.Scheme.malloc 48 in
    s.Runtime.Scheme.free (s.Runtime.Scheme.malloc 48);
    if drain then epoch_drain s;
    charged s (op s p)
  in
  [
    ("ours-bounds load", 6, on_live ours_bounds load);
    ("tagged load", 4, on_live tagged load);
    ("ours-epoch load, free pending", 2, on_epoch ~drain:false load);
    ("ours-epoch load, drained", 0, on_epoch ~drain:true load);
    ("capability load", 10, on_live capability load);
    ("capability store", 10, on_live capability store);
    ("capability free", 15, on_live capability free);
    ( "capability malloc", 15,
      fun () ->
        let s = fresh capability in
        charged s (fun () -> ignore (s.Runtime.Scheme.malloc 48)) );
  ]

let test_check_costs () =
  List.iter
    (fun (name, want, run) -> check_int name want (run ()))
    check_cost_rows

(* ---- pool handles are pass-through ---- *)

(* A baseline has no pools: [pool_create] hands back the scheme's own
   malloc and free with a no-op destroy, so pool-transformed workload
   source runs on it unchanged.  The same trace runs once through
   top-level malloc/free and once through a pool handle on a fresh
   machine, and every observation must match. *)
let outcome f =
  match f () with
  | () -> None
  | exception Shadow.Report.Violation r -> Some r.Shadow.Report.kind

let pool_trace (s : Runtime.Scheme.t) ~alloc ~free =
  let p = alloc 48 in
  let q = alloc 64 in
  s.Runtime.Scheme.store p ~width:8 7;
  free q;
  let stale = outcome (fun () -> ignore (s.Runtime.Scheme.load q ~width:8)) in
  let double = outcome (fun () -> free q) in
  ( p,
    q,
    s.Runtime.Scheme.load p ~width:8,
    stale,
    double,
    instructions s,
    Runtime.Scheme.cycles s )

let test_pool_pass_through () =
  List.iter
    (fun spec ->
      let name = Runtime.Scheme_spec.to_string spec in
      let s = fresh spec in
      let top =
        pool_trace s ~alloc:(fun n -> s.Runtime.Scheme.malloc n)
          ~free:(fun a -> s.Runtime.Scheme.free a)
      in
      let s = fresh spec in
      let h = s.Runtime.Scheme.pool_create ~elem_size:48 () in
      let pooled =
        pool_trace s ~alloc:(fun n -> h.Runtime.Scheme.pool_alloc n)
          ~free:(fun a -> h.Runtime.Scheme.pool_free a)
      in
      check_bool (name ^ ": pool handle = malloc/free") true (pooled = top);
      let _, _, v, stale, double, _, _ = pooled in
      check_int (name ^ ": live readback") 7 v;
      check_bool (name ^ ": stale load caught") true
        (Option.fold ~none:false ~some:is_uaf stale);
      check_bool (name ^ ": double free caught") true
        (double = Some Shadow.Report.Double_free);
      (* A pooled object freed through top-level free is freed. *)
      let p = h.Runtime.Scheme.pool_alloc 32 in
      s.Runtime.Scheme.free p;
      check_bool (name ^ ": shared heap") true
        (outcome (fun () -> h.Runtime.Scheme.pool_free p)
        = Some Shadow.Report.Double_free);
      (* Destroy is a no-op: live objects stay readable. *)
      let r = h.Runtime.Scheme.pool_alloc 16 in
      s.Runtime.Scheme.store r ~width:8 99;
      h.Runtime.Scheme.pool_destroy ();
      check_int (name ^ ": live after destroy") 99
        (s.Runtime.Scheme.load r ~width:8))
    Runtime.Scheme_spec.[ efence; valgrind; capability ]

(* All guaranteed-detection schemes agree on random traces. *)
let prop_guaranteed_schemes_agree =
  QCheck.Test.make ~name:"baselines: guaranteed schemes all catch random UAFs"
    ~count:25
    QCheck.(pair (int_range 1 30) (int_range 0 40))
    (fun (n_allocs, churn) ->
      let run make =
        let s = make () in
        let victim = ref 0 in
        for i = 1 to n_allocs do
          let p = s.Runtime.Scheme.malloc (16 + (i mod 3 * 16)) in
          if i = 1 then victim := p
        done;
        s.Runtime.Scheme.free !victim;
        for _ = 1 to churn do
          ignore (s.Runtime.Scheme.malloc 16)
        done;
        match s.Runtime.Scheme.load !victim ~width:8 with
        | _ -> false
        | exception Shadow.Report.Violation _ -> true
      in
      run efence && run capability
      && run (fun () -> Runtime.Schemes.shadow_basic (Machine.create ())))

let () =
  Alcotest.run "baseline"
    [
      ( "efence",
        [
          Alcotest.test_case "roundtrip" `Quick test_efence_roundtrip;
          Alcotest.test_case "uaf" `Quick test_efence_detects_uaf;
          Alcotest.test_case "double free" `Quick
            test_efence_detects_double_free;
          Alcotest.test_case "guard page" `Quick
            test_efence_guard_page_catches_overflow;
          Alcotest.test_case "physical blowup" `Quick
            test_efence_physical_blowup;
          Alcotest.test_case "one-byte overrun" `Quick
            test_efence_one_byte_overrun;
        ] );
      ( "spatial+temporal",
        [
          Alcotest.test_case "in bounds ok" `Quick test_spatial_in_bounds_ok;
          Alcotest.test_case "overflow detected" `Quick
            test_spatial_overflow_detected;
          Alcotest.test_case "straddling access" `Quick
            test_spatial_straddling_access_detected;
          Alcotest.test_case "temporal still caught" `Quick
            test_spatial_still_catches_temporal;
          Alcotest.test_case "check cost" `Quick test_spatial_check_cost_charged;
        ] );
      ( "valgrind",
        [
          Alcotest.test_case "roundtrip" `Quick test_valgrind_roundtrip;
          Alcotest.test_case "immediate uaf" `Quick
            test_valgrind_detects_immediate_uaf;
          Alcotest.test_case "misses after reuse" `Quick
            test_valgrind_misses_after_reuse;
          Alcotest.test_case "double free" `Quick
            test_valgrind_detects_double_free;
          Alcotest.test_case "overhead" `Quick test_valgrind_overhead_charged;
          Alcotest.test_case "extra memory" `Quick test_valgrind_extra_memory;
        ] );
      ( "capability",
        [
          Alcotest.test_case "roundtrip" `Quick test_capability_roundtrip;
          Alcotest.test_case "uaf after reuse" `Quick
            test_capability_detects_uaf_even_after_reuse;
          Alcotest.test_case "double free" `Quick test_capability_double_free;
          Alcotest.test_case "memory overhead" `Quick
            test_capability_memory_overhead;
          Alcotest.test_case "invalid free" `Quick test_capability_invalid_free;
        ] );
      ( "check costs",
        [ Alcotest.test_case "exact per-op charges" `Quick test_check_costs ] );
      ( "pools",
        [
          Alcotest.test_case "baseline pools are pass-through" `Quick
            test_pool_pass_through;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_guaranteed_schemes_agree ] );
    ]
