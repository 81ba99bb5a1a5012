(* The fleet crash pipeline: violation-kind labels round-trip, stack
   signatures are stable and identity-blind to everything but the bug
   site, sink merge is deterministic under any partition of the report
   multiset, and the recoverable scheme wrapper reports violations
   while letting the workload finish. *)

module Crash = Fleet.Crash

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- kind labels ---- *)

let test_kind_labels_round_trip () =
  List.iter
    (fun k ->
      let label = Shadow.Report.kind_label k in
      match Shadow.Report.kind_of_label label with
      | Some k' ->
        check_bool ("round-trip " ^ label) true (k = k')
      | None -> Alcotest.fail ("label does not round-trip: " ^ label))
    Shadow.Report.all_kinds;
  let labels = List.map Shadow.Report.kind_label Shadow.Report.all_kinds in
  check_int "labels are distinct" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  check_bool "unknown label rejected" true
    (Shadow.Report.kind_of_label "totally-not-a-kind" = None)

let test_event_kind_matches_label () =
  (* The single-source contract: the event's kind string IS kind_label. *)
  List.iter
    (fun k ->
      let r =
        { Shadow.Report.kind = k; fault_addr = 0x1000; object_info = None }
      in
      match Shadow.Report.to_event r with
      | Telemetry.Event.Violation { kind; addr } ->
        check_string "event kind" (Shadow.Report.kind_label k) kind;
        check_int "event addr" 0x1000 addr
      | _ -> Alcotest.fail "to_event did not build a Violation event")
    Shadow.Report.all_kinds

(* ---- signatures ---- *)

let report ?(kind = "use-after-free (read)") ?(alloc_site = "a.c:1")
    ?(free_site = "a.c:2") ?(fault_addr = 0x1000) ?(shard = 0)
    ?(at_cycles = 100) () =
  {
    Crash.kind;
    fault_addr;
    offset = Some 0;
    object_size = Some 64;
    alloc_site;
    free_site;
    scheme = "shadow-pool";
    shard;
    at_cycles;
  }

let test_signature_identity () =
  let base = Crash.signature (report ()) in
  (* blind to where/when the trap happened *)
  check_bool "same bug, same signature" true
    (base
    = Crash.signature (report ~fault_addr:0xdead ~shard:7 ~at_cycles:999 ()));
  (* sensitive to each identity component *)
  check_bool "kind changes it" true
    (base <> Crash.signature (report ~kind:"double free" ()));
  check_bool "alloc site changes it" true
    (base <> Crash.signature (report ~alloc_site:"b.c:9" ()));
  check_bool "free site changes it" true
    (base <> Crash.signature (report ~free_site:"b.c:9" ()));
  (* FNV-1a is a pinned algorithm: this hex value must never drift,
     because stored fleet reports dedup on it across versions. *)
  check_string "stable across runs" "872374d0aeb10132"
    (Crash.signature_hex base);
  check_int "hex is 16 digits" 16 (String.length (Crash.signature_hex base))

(* ---- sinks and merge ---- *)

let seeded_reports =
  (* 3 bugs: site A seen 3x on two shards, B 2x, C once *)
  [
    report ~alloc_site:"A" ~shard:0 ~at_cycles:10 ();
    report ~alloc_site:"A" ~shard:1 ~at_cycles:30 ();
    report ~alloc_site:"A" ~shard:1 ~at_cycles:20 ();
    report ~alloc_site:"B" ~kind:"double free" ~shard:0 ~at_cycles:15 ();
    report ~alloc_site:"B" ~kind:"double free" ~shard:0 ~at_cycles:25 ();
    report ~alloc_site:"C" ~kind:"use-after-free (write)" ~shard:1
      ~at_cycles:5 ();
  ]

let merge_partition partition =
  let sinks =
    List.map
      (fun rs ->
        let s = Crash.create_sink () in
        List.iter (Crash.record s) rs;
        s)
      partition
  in
  Crash.merge sinks

let test_merge_ranking () =
  let fr = merge_partition [ seeded_reports ] in
  check_int "total reports" 6 fr.Crash.total_reports;
  check_int "three signatures" 3 (List.length fr.Crash.entries);
  (match fr.Crash.entries with
   | [ a; b; c ] ->
     check_string "rank 1 is the hottest bug" "A" a.Crash.e_alloc_site;
     check_int "rank 1 count" 3 a.Crash.count;
     check_int "rank 1 first seen" 10 a.Crash.first_seen;
     check_int "rank 1 last seen" 30 a.Crash.last_seen;
     check_bool "rank 1 shard set" true (a.Crash.shards = [ 0; 1 ]);
     check_int "rank 1 impact" 6 (Crash.impact a);
     check_string "rank 2" "B" b.Crash.e_alloc_site;
     check_string "rank 3" "C" c.Crash.e_alloc_site;
     check_int "rank 3 count" 1 c.Crash.count
   | _ -> Alcotest.fail "wrong entry count");
  (* ties rank by bug identity, not insertion order *)
  let tied =
    merge_partition
      [ [ report ~alloc_site:"Z" (); report ~alloc_site:"Y" () ] ]
  in
  match List.map (fun e -> e.Crash.e_alloc_site) tied.Crash.entries with
  | [ "Y"; "Z" ] -> ()
  | sites -> Alcotest.fail ("tie not broken by site: " ^ String.concat "," sites)

let test_merge_partition_invariant () =
  (* However the same report multiset is split across sinks — one sink,
     one per shard, one per report, reversed — the fleet report's
     canonical string is byte-identical. *)
  let canonical partition = Crash.canonical_string (merge_partition partition) in
  let whole = canonical [ seeded_reports ] in
  check_string "split in two" whole
    (canonical
       [
         List.filteri (fun i _ -> i < 3) seeded_reports;
         List.filteri (fun i _ -> i >= 3) seeded_reports;
       ]);
  check_string "one sink per report" whole
    (canonical (List.map (fun r -> [ r ]) seeded_reports));
  check_string "reversed" whole
    (canonical [ List.rev seeded_reports ]);
  check_bool "canonical string mentions every site" true
    (List.for_all
       (fun s ->
         List.exists
           (fun line ->
             List.mem s (String.split_on_char '|' line))
           (String.split_on_char '\n' whole))
       [ "A"; "B"; "C" ])

let test_json_and_metrics () =
  let fr = merge_partition [ seeded_reports ] in
  (match Telemetry.Json.of_string (Telemetry.Json.to_string (Crash.to_json fr)) with
   | Error e -> Alcotest.fail ("fleet report JSON does not parse: " ^ e)
   | Ok j ->
     (match Telemetry.Json.member "total_reports" j with
      | Some (Telemetry.Json.Int 6) -> ()
      | _ -> Alcotest.fail "total_reports wrong in JSON");
     (match Telemetry.Json.member "entries" j with
      | Some (Telemetry.Json.List l) -> check_int "entries in JSON" 3 (List.length l)
      | _ -> Alcotest.fail "entries missing in JSON"));
  let m = Telemetry.Metrics.create () in
  Crash.register_metrics m fr;
  Crash.register_metrics m fr;
  (* idempotent: set, not incremented *)
  check_int "reports counter" 6
    (Telemetry.Metrics.counter_value
       (Telemetry.Metrics.counter m "fleet.reports_total"));
  check_int "one labelled counter per signature + totals" (3 + 1)
    (List.length
       (List.filter
          (fun n ->
            String.length n >= 6 && String.sub n 0 6 = "fleet.")
          (Telemetry.Metrics.names m))
    - 1 (* the signatures gauge *))

(* ---- recoverable scheme ---- *)

(* The wrapper's [recover.*] counters, read from the machine's registry. *)
let recovered (scheme : Runtime.Scheme.t) name =
  Telemetry.Metrics.count
    (Vmm.Stats.registry scheme.Runtime.Scheme.machine.Vmm.Machine.stats)
    ("recover." ^ name)

let make_recoverable () =
  let reports = ref [] in
  let m = Vmm.Machine.create () in
  let scheme =
    Runtime.Schemes.recoverable
      ~on_report:(fun r -> reports := r :: !reports)
      (Runtime.Schemes.shadow_pool m)
  in
  (scheme, reports)

let test_recoverable_uaf_load () =
  let scheme, reports = make_recoverable () in
  let p = scheme.Runtime.Scheme.malloc ~site:"t.c:1" 64 in
  scheme.Runtime.Scheme.store p ~width:8 42;
  scheme.Runtime.Scheme.free ~site:"t.c:2" p;
  (* the dangling read is reported but the workload continues — and the
     unprotected shadow page still holds the stale bytes *)
  check_int "stale value readable after recovery" 42
    (scheme.Runtime.Scheme.load p ~width:8);
  check_int "one report" 1 (List.length !reports);
  (match !reports with
   | [ r ] ->
     check_bool "kind is a UAF read" true
       (r.Shadow.Report.kind = Shadow.Report.Use_after_free Vmm.Perm.Read)
   | _ -> ());
  let q = scheme.Runtime.Scheme.malloc ~site:"t.c:3" 32 in
  scheme.Runtime.Scheme.store q ~width:8 7;
  check_int "scheme still serves allocations" 7
    (scheme.Runtime.Scheme.load q ~width:8);
  check_int "one recovered load" 1 (recovered scheme "loads");
  check_int "one page unprotected" 1 (recovered scheme "pages_unprotected")

let test_recoverable_double_free () =
  let scheme, reports = make_recoverable () in
  let p = scheme.Runtime.Scheme.malloc ~site:"t.c:1" 64 in
  scheme.Runtime.Scheme.free ~site:"t.c:2" p;
  scheme.Runtime.Scheme.free ~site:"t.c:3" p;
  check_int "double free reported" 1 (List.length !reports);
  (match !reports with
   | [ r ] ->
     check_bool "kind is double free" true
       (r.Shadow.Report.kind = Shadow.Report.Double_free)
   | _ -> ());
  check_int "one recovered free" 1 (recovered scheme "frees");
  (* skipping the bad free leaves the heap consistent *)
  let q = scheme.Runtime.Scheme.malloc ~site:"t.c:4" 64 in
  scheme.Runtime.Scheme.store q ~width:8 9;
  check_int "heap still consistent" 9 (scheme.Runtime.Scheme.load q ~width:8)

let test_recoverable_uaf_store () =
  let scheme, reports = make_recoverable () in
  let p = scheme.Runtime.Scheme.malloc ~site:"t.c:1" 64 in
  scheme.Runtime.Scheme.free ~site:"t.c:2" p;
  scheme.Runtime.Scheme.store p ~width:8 13;
  check_int "dangling store reported" 1 (List.length !reports);
  check_int "retried store landed on the unprotected page" 13
    (scheme.Runtime.Scheme.load p ~width:8);
  check_int "one recovered store" 1 (recovered scheme "stores")

let test_of_violation () =
  let scheme, reports = make_recoverable () in
  let p = scheme.Runtime.Scheme.malloc ~site:"srv.c:10" 48 in
  scheme.Runtime.Scheme.free ~site:"srv.c:20" p;
  ignore (scheme.Runtime.Scheme.load p ~width:8);
  match !reports with
  | [ r ] ->
    let c = Crash.of_violation ~scheme:"test" ~shard:3 ~at_cycles:77 r in
    check_string "kind label" "use-after-free (read)" c.Crash.kind;
    check_string "alloc site" "srv.c:10" c.Crash.alloc_site;
    check_string "free site" "srv.c:20" c.Crash.free_site;
    check_int "shard" 3 c.Crash.shard;
    check_int "at_cycles" 77 c.Crash.at_cycles;
    check_bool "object size carried" true (c.Crash.object_size = Some 48)
  | _ -> Alcotest.fail "expected exactly one report"

let () =
  Alcotest.run "fleet"
    [
      ( "kinds",
        [
          Alcotest.test_case "labels round-trip" `Quick
            test_kind_labels_round_trip;
          Alcotest.test_case "event kind = kind_label" `Quick
            test_event_kind_matches_label;
        ] );
      ( "signature",
        [ Alcotest.test_case "identity and stability" `Quick
            test_signature_identity ] );
      ( "merge",
        [
          Alcotest.test_case "ranking" `Quick test_merge_ranking;
          Alcotest.test_case "partition-invariant" `Quick
            test_merge_partition_invariant;
          Alcotest.test_case "json and metrics" `Quick test_json_and_metrics;
        ] );
      ( "recoverable",
        [
          Alcotest.test_case "uaf load continues" `Quick
            test_recoverable_uaf_load;
          Alcotest.test_case "double free skipped" `Quick
            test_recoverable_double_free;
          Alcotest.test_case "uaf store continues" `Quick
            test_recoverable_uaf_store;
          Alcotest.test_case "violation -> crash report" `Quick
            test_of_violation;
        ] );
    ]
