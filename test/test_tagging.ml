(* The pointer-tagging backend: generation bumps on free, tag-width
   wraparound accounting, interior-pointer tag handling, the tagged
   scheme end to end (including under the recoverable wrapper), the
   backend-stepping governor ladder, and the spec catalogue round-trips
   that tie the whole scheme vocabulary together. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let expect_violation name pred thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: no violation raised" name
  | exception Shadow.Report.Violation r ->
    Alcotest.check Alcotest.bool (name ^ ": report shape") true (pred r);
    r

let is_tag_mismatch access (r : Shadow.Report.t) =
  r.Shadow.Report.kind = Shadow.Report.Tag_mismatch access

module T = Tagging.Tag_table

(* ---- generation bump on free ---- *)

let test_generation_bump () =
  let m = Machine.create () in
  let t = T.create m in
  let base = Kernel.mmap m ~pages:4 in
  let p = T.register t ~base ~size:32 ~site:"a.c:1" in
  check_bool "pointer is tagged above the address bits" true
    (p <> T.untag p || T.tag_of p = 0);
  check_int "untag recovers the base" base (T.untag p);
  check_int "one live chunk" 1 (T.live_chunks t);
  (* a valid access consults the table and passes *)
  (match T.check_access t p ~access:Perm.Read with
  | Some raw -> check_int "check returns the untagged address" base raw
  | None -> Alcotest.fail "registered granule reported untracked");
  let raw = T.free t p ~site:"a.c:2" in
  check_int "free returns the untagged base" base raw;
  check_int "no live chunks after free" 0 (T.live_chunks t);
  (* the generation bumped, so the stale pointer's tag mismatches *)
  let r =
    expect_violation "stale load" (is_tag_mismatch Perm.Read) (fun () ->
        T.check_access t p ~access:Perm.Read)
  in
  (match r.Shadow.Report.object_info with
  | Some info ->
    check_string "alloc site survives" "a.c:1" info.Shadow.Report.alloc_site;
    check_bool "free site survives" true
      (info.Shadow.Report.free_site = Some "a.c:2")
  | None -> Alcotest.fail "tag fault carries no object info");
  let _ =
    expect_violation "stale store" (is_tag_mismatch Perm.Write) (fun () ->
        T.check_access t p ~access:Perm.Write)
  in
  (* double free of the stale pointer *)
  let _ =
    expect_violation "double free"
      (fun r -> r.Shadow.Report.kind = Shadow.Report.Double_free)
      (fun () -> T.free t p ~site:"a.c:3")
  in
  let s = T.stats t in
  check_bool "tag faults counted" true (s.T.tag_faults >= 2);
  check_bool "checks counted" true (s.T.tag_checks >= 4);
  check_int "no wraps at 8-bit tags" 0 s.T.generation_wraps;
  check_bool "table overhead modeled" true (s.T.table_bytes > 0)

(* ---- interior pointers ---- *)

let test_interior_pointers () =
  let m = Machine.create () in
  let t = T.create m in
  let base = Kernel.mmap m ~pages:1 in
  let p = T.register t ~base ~size:64 ~site:"b.c:1" in
  (* interior access in a later granule carries the same tag *)
  let interior = p + 48 in
  check_int "interior untag" (base + 48) (T.untag interior);
  check_int "interior tag equals base tag" (T.tag_of p) (T.tag_of interior);
  (match T.check_access t interior ~access:Perm.Write with
  | Some raw -> check_int "interior check translates" (base + 48) raw
  | None -> Alcotest.fail "interior granule reported untracked");
  (* freeing through an interior pointer is an invalid free *)
  let _ =
    expect_violation "interior free"
      (fun r -> r.Shadow.Report.kind = Shadow.Report.Invalid_free)
      (fun () -> T.free t interior ~site:"b.c:2")
  in
  (* after the real free, the stale interior pointer faults too *)
  let _ = T.free t p ~site:"b.c:3" in
  let r =
    expect_violation "stale interior load" (is_tag_mismatch Perm.Read)
      (fun () -> T.check_access t interior ~access:Perm.Read)
  in
  (match r.Shadow.Report.object_info with
  | Some info -> check_int "offset diagnosed" 48 info.Shadow.Report.offset
  | None -> Alcotest.fail "no object info on interior fault");
  (* an address that was never registered falls through untracked *)
  check_bool "unregistered address is untracked" true
    (T.check_access t (base + (8 * Addr.page_size)) ~access:Perm.Read = None)

(* ---- wraparound accounting ---- *)

let test_wraparound () =
  let m = Machine.create () in
  let t = T.create ~tag_bits:2 m in
  let base = Kernel.mmap m ~pages:1 in
  (* Cycle one granule through 2^2 generations: 4 frees bring the
     generation back to 0 mod 4, crossing exactly one wrap boundary. *)
  let p0 = T.register t ~base ~size:16 ~site:"w.c:1" in
  let stale_mid = ref 0 in
  for i = 1 to 4 do
    let p =
      if i = 1 then p0 else T.register t ~base ~size:16 ~site:"w.c:1"
    in
    if i = 2 then stale_mid := p;
    ignore (T.free t p ~site:"w.c:2")
  done;
  let p4 = T.register t ~base ~size:16 ~site:"w.c:3" in
  check_int "one generation wrap recorded" 1 (T.stats t).T.generation_wraps;
  check_bool "wide generations differ" true (T.tag_of p0 <> T.tag_of p4);
  (* p0 is 4 generations stale: masked tags collide, so the access
     passes exactly as it would on hardware — but is attributed. *)
  (match T.check_access t p0 ~access:Perm.Read with
  | Some _ -> ()
  | None -> Alcotest.fail "wrapped access should pass the masked check");
  check_int "wrap pass attributed" 1 (T.stats t).T.wrap_masked_passes;
  (* a 2-generations-stale pointer still faults: distance not 0 mod 4 *)
  let _ =
    expect_violation "non-multiple distance still faults"
      (is_tag_mismatch Perm.Read)
      (fun () -> T.check_access t !stale_mid ~access:Perm.Read)
  in
  check_int "no further wrap passes" 1 (T.stats t).T.wrap_masked_passes

(* ---- the tagged scheme end to end ---- *)

let test_tagged_scheme () =
  let m = Machine.create () in
  let s = Runtime.Schemes.tagged m in
  check_string "scheme name" "tagged" s.Runtime.Scheme.name;
  check_bool "guarantees detection" true s.Runtime.Scheme.guarantees_detection;
  let p = s.Runtime.Scheme.malloc ~site:"t.c:1" 48 in
  s.Runtime.Scheme.store p ~width:8 42;
  check_int "load after store" 42 (s.Runtime.Scheme.load p ~width:8);
  check_int "interior load" 0 (s.Runtime.Scheme.load (p + 16) ~width:8);
  let va_before = Machine.va_bytes_used m in
  s.Runtime.Scheme.free ~site:"t.c:2" p;
  let _ =
    expect_violation "UAF load" (is_tag_mismatch Perm.Read) (fun () ->
        s.Runtime.Scheme.load p ~width:8)
  in
  let _ =
    expect_violation "double free"
      (fun r -> r.Shadow.Report.kind = Shadow.Report.Double_free)
      (fun () -> s.Runtime.Scheme.free ~site:"t.c:3" p)
  in
  (* instant VA reuse: the next allocation re-tags the same block
     rather than consuming fresh address space *)
  let q = s.Runtime.Scheme.malloc ~site:"t.c:4" 48 in
  check_int "no new VA burned on realloc" va_before (Machine.va_bytes_used m);
  check_int "recycled block serves fresh data" 0
    (s.Runtime.Scheme.load q ~width:8);
  (* ... and the old pointer still faults after the reuse *)
  let _ =
    expect_violation "UAF after reuse" (is_tag_mismatch Perm.Read) (fun () ->
        s.Runtime.Scheme.load p ~width:8)
  in
  check_bool "modeled table overhead reported" true
    (s.Runtime.Scheme.extra_memory_bytes () > 0);
  (* pools: destroy retires live chunks, so pool-dangling uses fault *)
  let h = s.Runtime.Scheme.pool_create () in
  let a = h.Runtime.Scheme.pool_alloc ~site:"t.c:5" 32 in
  s.Runtime.Scheme.store a ~width:8 7;
  h.Runtime.Scheme.pool_destroy ();
  let r =
    expect_violation "use after pool destroy" (is_tag_mismatch Perm.Read)
      (fun () -> s.Runtime.Scheme.load a ~width:8)
  in
  (match r.Shadow.Report.object_info with
  | Some info ->
    check_bool "destroy stamped as the free site" true
      (info.Shadow.Report.free_site = Some "<pool-destroy>")
  | None -> Alcotest.fail "pool fault carries no object info");
  match Runtime.Schemes.introspect s with
  | Runtime.Schemes.Tagged { table; _ } ->
    let st = T.stats table in
    check_bool "scheme checks flowed through the table" true
      (st.T.tag_checks > 0)
  | _ -> Alcotest.fail "tagged scheme does not introspect"

(* ---- recoverable wrapper interop ---- *)

let test_recoverable_interop () =
  let m = Machine.create () in
  let reports = ref [] in
  let s =
    Runtime.Schemes.recoverable
      ~on_report:(fun r -> reports := r :: !reports)
      (Runtime.Schemes.tagged m)
  in
  let p = s.Runtime.Scheme.malloc ~site:"r.c:1" 32 in
  s.Runtime.Scheme.store p ~width:8 9;
  s.Runtime.Scheme.free ~site:"r.c:2" p;
  (* recovered UAF load yields 0, delivers one report, and the scheme
     keeps serving *)
  check_int "recovered load yields 0" 0 (s.Runtime.Scheme.load p ~width:8);
  check_int "one report" 1 (List.length !reports);
  (match !reports with
  | [ r ] ->
    check_bool "report is a tag mismatch" true
      (r.Shadow.Report.kind = Shadow.Report.Tag_mismatch Perm.Read)
  | _ -> Alcotest.fail "expected exactly one report");
  let q = s.Runtime.Scheme.malloc ~site:"r.c:3" 32 in
  s.Runtime.Scheme.store q ~width:8 5;
  check_int "scheme still serves allocations" 5
    (s.Runtime.Scheme.load q ~width:8)

(* ---- report kind labels round-trip ---- *)

let test_kind_round_trip () =
  check_int "all_kinds covers the catalogue" 10
    (List.length Shadow.Report.all_kinds);
  List.iter
    (fun kind ->
      let label = Shadow.Report.kind_label kind in
      match Shadow.Report.kind_of_label label with
      | Some k ->
        check_bool (Printf.sprintf "round-trip %s" label) true (k = kind)
      | None -> Alcotest.failf "kind label %s does not parse back" label)
    Shadow.Report.all_kinds;
  check_bool "unknown label rejected" true
    (Shadow.Report.kind_of_label "no-such-kind" = None)

(* ---- the spec catalogue round-trips and builds ---- *)

let test_spec_round_trip () =
  let module Spec = Runtime.Scheme_spec in
  List.iter
    (fun spec ->
      let name = Spec.to_string spec in
      (match Spec.of_string name with
      | Some back ->
        check_bool (Printf.sprintf "of_string (to_string %s)" name) true
          (back = spec)
      | None -> Alcotest.failf "spec %s does not parse back" name);
      check_bool (name ^ " has a label") true (Spec.label spec <> "");
      check_bool (name ^ " has a description") true
        (Spec.description spec <> "");
      (* every catalogue entry constructs a working scheme *)
      let s = Spec.build spec (Machine.create ()) in
      let p = s.Runtime.Scheme.malloc ~site:"s.c:1" 32 in
      s.Runtime.Scheme.store p ~width:8 3;
      check_int
        (name ^ " serves a live load")
        3
        (s.Runtime.Scheme.load p ~width:8);
      s.Runtime.Scheme.free ~site:"s.c:2" p)
    Spec.all;
  check_int "names () matches the catalogue"
    (List.length Spec.all)
    (List.length (Spec.names ()));
  check_bool "unknown name rejected" true (Spec.of_string "no-such" = None);
  check_bool "recover wrapper parses recursively" true
    (Spec.of_string "tagged+recover"
    = Some (Spec.Recover Spec.Tagged))

(* ---- the backend-stepping governor ladder ---- *)

let gov_config =
  {
    Runtime.Governor.default_config with
    Runtime.Governor.failure_threshold = 2;
    window = 4;
    recover_after = 2;
    probe_every = 4;
    cooldown = 2;
    ladder = Runtime.Governor.backend_ladder;
  }

let test_governor_backend_ladder () =
  let m = Machine.create () in
  let g = Runtime.Governor.create ~config:gov_config m in
  check_bool "starts on shadow" true (Runtime.Governor.backend g = `Shadow);
  check_bool "ladder resolved as configured" true
    (Runtime.Governor.ladder g = Runtime.Governor.backend_ladder);
  (* a failure burst steps down one rung: shadow -> tagged *)
  Runtime.Governor.on_alloc g;
  Runtime.Governor.record_failure g ~reason:"enomem";
  Runtime.Governor.record_failure g ~reason:"enomem";
  check_bool "stepped to the tagged backend" true
    (Runtime.Governor.backend g = `Tagged);
  check_bool "tagged rung is passive" true
    (Runtime.Governor.is_passive (Runtime.Governor.mode g));
  check_bool "tagged rung does not shadow-protect" false
    (Runtime.Governor.should_protect g);
  (* passive rungs recover by probe, not by success streaks *)
  for _ = 1 to 8 do
    Runtime.Governor.on_alloc g
  done;
  check_bool "probe stepped back up to shadow" true
    (Runtime.Governor.backend g = `Shadow);
  (* a second burst steps down again; a third reaches raw passthrough *)
  Runtime.Governor.record_failure g ~reason:"enomem";
  Runtime.Governor.record_failure g ~reason:"enomem";
  check_bool "back on tagged" true (Runtime.Governor.backend g = `Tagged);
  let degraded = Runtime.Governor.degraded_windows g in
  check_bool "tagged intervals count as degraded windows" true
    (List.length degraded >= 2)

(* ---- the governed backend ladder end to end ---- *)

let test_governed_backend_ladder () =
  let m = Machine.create () in
  let gov = Runtime.Governed.backend_ladder ~config:gov_config m in
  let s = Runtime.Governed.scheme gov in
  check_bool "exposes its tag table" true
    (Runtime.Governed.tag_table gov <> None);
  (* healthy: shadow backend detects by MMU trap *)
  let p = s.Runtime.Scheme.malloc ~site:"g.c:1" 32 in
  s.Runtime.Scheme.store p ~width:8 1;
  s.Runtime.Scheme.free ~site:"g.c:2" p;
  (match s.Runtime.Scheme.load p ~width:8 with
  | _ -> Alcotest.fail "shadow rung missed a UAF"
  | exception Shadow.Report.Violation _ -> ());
  (* force the ladder onto the tagged rung and exercise detection there *)
  Runtime.Governor.record_failure (Runtime.Governed.governor gov)
    ~reason:"enomem";
  Runtime.Governor.record_failure (Runtime.Governed.governor gov)
    ~reason:"enomem";
  check_bool "ladder now on tagged" true
    (Runtime.Governor.backend (Runtime.Governed.governor gov) = `Tagged);
  let q = s.Runtime.Scheme.malloc ~site:"g.c:3" 32 in
  s.Runtime.Scheme.store q ~width:8 2;
  check_int "tagged rung serves loads" 2 (s.Runtime.Scheme.load q ~width:8);
  s.Runtime.Scheme.free ~site:"g.c:4" q;
  let _ =
    expect_violation "tagged rung detects UAF" (is_tag_mismatch Perm.Read)
      (fun () -> s.Runtime.Scheme.load q ~width:8)
  in
  (* tagged-rung allocations are still guarded: not in the
     ever-unprotected record *)
  check_bool "tagged alloc was never unprotected" false
    (Runtime.Governed.was_unprotected gov q)

let () =
  Alcotest.run "tagging"
    [
      ( "tag-table",
        [
          Alcotest.test_case "generation bump on free" `Quick
            test_generation_bump;
          Alcotest.test_case "interior pointers" `Quick test_interior_pointers;
          Alcotest.test_case "wraparound accounting" `Quick test_wraparound;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "tagged scheme end to end" `Quick
            test_tagged_scheme;
          Alcotest.test_case "recoverable interop" `Quick
            test_recoverable_interop;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "report kinds round-trip" `Quick
            test_kind_round_trip;
          Alcotest.test_case "spec round-trips and builds" `Quick
            test_spec_round_trip;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "governor steps backends" `Quick
            test_governor_backend_ladder;
          Alcotest.test_case "governed backend ladder" `Quick
            test_governed_backend_ladder;
        ] );
    ]
