(* End-to-end integration tests across the whole stack: MiniC programs
   compiled and run under every scheme, servers surviving diagnosed
   child crashes, long-lived pool mitigation in a running server, and
   cross-cutting invariants between the layers. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* A MiniC workload with pools, data-structure churn, and output. *)
let list_workload =
  {|
struct node { int v; struct node *next; }

struct node *build(int n) {
  struct node *head = null;
  int i = 0;
  while (i < n) {
    struct node *fresh = malloc(struct node);
    fresh->v = i;
    fresh->next = head;
    head = fresh;
    i = i + 1;
  }
  return head;
}

int total(struct node *head) {
  int acc = 0;
  struct node *cur = head;
  while (cur != null) {
    acc = acc + cur->v;
    cur = cur->next;
  }
  return acc;
}

void release(struct node *head) {
  struct node *cur = head;
  while (cur != null) {
    struct node *nxt = cur->next;
    free(cur);
    cur = nxt;
  }
}

void main() {
  int round = 0;
  while (round < 3) {
    struct node *head = build(20);
    print(total(head));
    release(head);
    round = round + 1;
  }
}
|}

let expected_prints = [ 190; 190; 190 ]

let schemes : (string * (Machine.t -> Runtime.Scheme.t)) list =
  [
    ("native", Runtime.Schemes.native);
    ("pa", fun m -> Runtime.Schemes.pa m);
    ("pa+dummy", Runtime.Schemes.pa ~config:{ Runtime.Schemes.dummy_syscalls = true });
    ("shadow-basic", Runtime.Schemes.shadow_basic);
    ("shadow-pool", fun m -> Runtime.Schemes.shadow_pool m);
    ("efence", fun m -> Runtime.Efence.scheme m);
    ("valgrind", fun m -> Runtime.Valgrind_sim.scheme m);
    ("capability", fun m -> Runtime.Capability_check.scheme m);
  ]

let test_minic_under_every_scheme () =
  let program = Minic.Parser.parse list_workload in
  let transformed, _ = Minic.Pool_transform.transform program in
  List.iter
    (fun (name, make) ->
      let run p =
        (Minic.Interp.run p (make (Machine.create ()))).Minic.Interp.prints
      in
      check_bool (name ^ ": plain program output") true
        (run program = expected_prints);
      check_bool (name ^ ": transformed program output") true
        (run transformed = expected_prints))
    schemes

let test_transformed_program_bounded_va () =
  (* Each main-loop round creates and destroys pools: under the full
     scheme the rounds reuse each other's virtual pages. *)
  let program = Minic.Parser.parse list_workload in
  let transformed, _ = Minic.Pool_transform.transform program in
  (* Run the same program repeatedly on one machine: each run is three
     more build/release rounds against the same scheme. *)
  let run rounds =
    let m = Machine.create () in
    let scheme = Runtime.Schemes.shadow_pool m in
    for _ = 1 to rounds do
      ignore (Minic.Interp.run transformed scheme)
    done;
    Machine.va_bytes_used m
  in
  let va2 = run 2 in
  let va6 = run 6 in
  check_bool
    (Printf.sprintf "VA does not scale with rounds (%d vs %d)" va2 va6)
    true
    (va6 < va2 * 2)

let test_server_survives_buggy_connection () =
  (* A production-server scenario: connection 3 triggers a double free;
     the trap diagnoses it, that child dies, service continues. *)
  let handler i (scheme : Runtime.Scheme.t) =
    let session = scheme.Runtime.Scheme.malloc ~site:"session" 128 in
    Runtime.Workload_api.fill_words scheme session ~words:8 ~value:i;
    scheme.Runtime.Scheme.free ~site:"teardown" session;
    if i = 3 then scheme.Runtime.Scheme.free ~site:"buggy-teardown" session
  in
  let result =
    Runtime.Process.serve
      ~make_scheme:(fun () -> Runtime.Schemes.shadow_pool (Machine.create ()))
      ~handler ~connections:6
  in
  check_int "exactly the buggy child diagnosed" 1
    result.Runtime.Process.detections;
  check_int "service completed" 6 result.Runtime.Process.connections

let test_long_lived_pool_mitigation_in_server () =
  (* §3.4 in vivo: a long-running single-process server whose global
     pool would exhaust address space is kept flat by interval reuse. *)
  let m = Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool m in
  let pool =
    match Runtime.Schemes.introspect scheme with
    | Runtime.Schemes.Shadow_pool { global; _ } -> global
    | _ -> Alcotest.fail "no global pool"
  in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 32 })
      pool
  in
  for i = 1 to 400 do
    let a = scheme.Runtime.Scheme.malloc ~site:"request" 64 in
    Runtime.Workload_api.store_field scheme a 0 i;
    scheme.Runtime.Scheme.free ~site:"request-done" a;
    Shadow.Reuse_policy.after_free policy
  done;
  check_bool "policy reclaimed repeatedly" true
    (Shadow.Reuse_policy.reclaimed_pages policy >= 300);
  (* 400 allocations, but VA consumption stays near the trigger bound. *)
  check_bool "VA stays bounded" true
    (Machine.va_bytes_used m < 150 * Addr.page_size)

let test_detection_diagnostics_cross_stack () =
  (* The report surfaced by a MiniC-level bug carries the MiniC-level
     allocation/free sites. *)
  let src =
    "struct s { int v; }\n\
     void main() {\n\
    \  struct s *p = malloc(struct s);\n\
    \  p->v = 1;\n\
    \  free(p);\n\
    \  print(p->v);\n\
     }"
  in
  let transformed, _ = Minic.Pool_transform.transform (Minic.Parser.parse src) in
  (match
     Minic.Interp.run transformed
       (Runtime.Schemes.shadow_pool (Machine.create ()))
   with
   | _ -> Alcotest.fail "bug not detected"
   | exception Shadow.Report.Violation r ->
     (match r.Shadow.Report.object_info with
      | Some info ->
        check_bool "alloc site names main's poolalloc" true
          (String.length info.Shadow.Report.alloc_site > 0
           && String.sub info.Shadow.Report.alloc_site 0 4 = "main");
        check_bool "free site recorded" true
          (info.Shadow.Report.free_site <> None)
      | None -> Alcotest.fail "no object info"))

let test_efence_vs_ours_memory_on_same_workload () =
  let b =
    match Workload.Catalog.find_batch "enscript" with
    | Some b -> b
    | None -> Alcotest.fail "enscript missing"
  in
  let frames config =
    (Harness.Experiment.run_batch ~scale:60 b config).Harness.Experiment.peak_frames
  in
  let ours = frames Harness.Experiment.ours in
  let efence = frames Harness.Experiment.efence in
  let native = frames Harness.Experiment.native in
  check_bool
    (Printf.sprintf "ours ~ native physical memory (%d vs %d)" ours native)
    true
    (ours <= 2 * native + 8);
  check_bool
    (Printf.sprintf "efence blows up (%d vs %d)" efence ours)
    true
    (efence > 3 * ours)

(* The shipped sample programs stay working: parse, transform, run. *)
let sample_program name =
  let path = Filename.concat "../../../examples/programs" name in
  let path =
    if Sys.file_exists path then path
    else Filename.concat "examples/programs" name
  in
  In_channel.with_open_text path In_channel.input_all

let test_sample_matrix () =
  let transformed, _ =
    Minic.Pool_transform.transform (Minic.Parser.parse (sample_program "matrix.mc"))
  in
  let out =
    (Minic.Interp.run transformed
       (Runtime.Schemes.shadow_pool (Machine.create ())))
      .Minic.Interp.prints
  in
  check_bool "matrix output" true (out = [ 2124 ])

let test_sample_server_session () =
  let transformed, summary =
    Minic.Pool_transform.transform
      (Minic.Parser.parse (sample_program "server_session.mc"))
  in
  check_bool "session pool owned by main" true
    (List.exists
       (fun d -> d.Minic.Pool_transform.owner = "main")
       summary.Minic.Pool_transform.pools);
  let out =
    (Minic.Interp.run transformed
       (Runtime.Schemes.shadow_pool (Machine.create ())))
      .Minic.Interp.prints
  in
  check_bool "session output" true (out = [ 100; 101; 102; 44 ])

let test_sample_figure1 () =
  let transformed, _ =
    Minic.Pool_transform.transform
      (Minic.Parser.parse (sample_program "figure1.mc"))
  in
  match
    Minic.Interp.run transformed (Runtime.Schemes.shadow_pool (Machine.create ()))
  with
  | _ -> Alcotest.fail "figure1's bug must be detected"
  | exception Shadow.Report.Violation _ -> ()

let test_stats_monotonic_across_stack () =
  let m = Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool m in
  let before = Stats.snapshot m.Machine.stats in
  (match Workload.Catalog.find_batch "treeadd" with
   | Some b -> b.Workload.Spec.run scheme ~scale:6
   | None -> Alcotest.fail "treeadd missing");
  let after = Stats.snapshot m.Machine.stats in
  let d = Stats.diff after before in
  check_bool "loads happened" true (d.Stats.loads > 0);
  check_bool "stores happened" true (d.Stats.stores > 0);
  check_bool "syscalls happened" true (Stats.total_syscalls d > 0);
  check_bool "no faults in a correct program" true (d.Stats.faults = 0)

let () =
  Alcotest.run "integration"
    [
      ( "cross-stack",
        [
          Alcotest.test_case "minic under every scheme" `Slow
            test_minic_under_every_scheme;
          Alcotest.test_case "bounded VA across runs" `Quick
            test_transformed_program_bounded_va;
          Alcotest.test_case "diagnostics cross stack" `Quick
            test_detection_diagnostics_cross_stack;
          Alcotest.test_case "stats monotonic" `Quick
            test_stats_monotonic_across_stack;
        ] );
      ( "production-server",
        [
          Alcotest.test_case "survives buggy connection" `Quick
            test_server_survives_buggy_connection;
          Alcotest.test_case "long-lived pool mitigation" `Quick
            test_long_lived_pool_mitigation_in_server;
        ] );
      ( "sample-programs",
        [
          Alcotest.test_case "matrix.mc" `Quick test_sample_matrix;
          Alcotest.test_case "server_session.mc" `Quick
            test_sample_server_session;
          Alcotest.test_case "figure1.mc" `Quick test_sample_figure1;
        ] );
      ( "memory",
        [
          Alcotest.test_case "efence vs ours" `Quick
            test_efence_vs_ours_memory_on_same_workload;
        ] );
    ]
