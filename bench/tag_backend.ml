(* The shadow-vs-tagging frontier, measured head to head: the same
   allocator-driving workloads run under the eager shadow-pool scheme
   and under [Runtime.Schemes.tagged], and each row records where the
   cost moved — shadow pays protection syscalls per heap op and burns
   VA for aliases; tagging pays a software check on every access and
   burns neither.

   The section also proves the backend's detection story at bench
   scale: seeded dangling probes (UAF load, UAF store, double free,
   use after pool destroy) must all fault under the plain (Full-mode)
   tagged scheme; a tag_bits=2 wrap demo must record both the
   generation wraps and the attributed masked passes; and a 1/2/4/8
   shard farm run under the tagged backend must keep merged detections
   and syscalls invariant across shard counts, like every other
   scheme.  The workloads are the epoch section's, so the two frontier
   rows (epoch vs tagged) share one eager baseline. *)

module J = Telemetry.Json
module F = Danguard_farm.Farm

let tag_stats_of scheme =
  match Runtime.Schemes.introspect scheme with
  | Runtime.Schemes.Tagged { table; _ } -> Tagging.Tag_table.stats table
  | _ -> assert false

(* ---- seeded probes: Full-mode tagged detection must be total ---- *)

let probes =
  Workload.Fault_injection.
    [
      ("uaf-load", read_after_free);
      ("uaf-store", write_after_free);
      ("double-free", double_free);
      ("use-after-pool-destroy", use_after_pool_destroy);
    ]

let detected (sc : Workload.Fault_injection.scenario) =
  match snd (sc.inject (Runtime.Schemes.tagged (Vmm.Machine.create ()))) with
  | Workload.Fault_injection.Detected _ -> true
  | Workload.Fault_injection.Silent _ | Workload.Fault_injection.Crashed _
  | Workload.Fault_injection.Crashed_degraded _ ->
    false

(* ---- the wraparound demo ---- *)

let wrap_demo () =
  (* tag_bits=2 makes the wrap reachable in 4 frees; the wide
     generation attributes the resulting masked pass exactly. *)
  let machine = Vmm.Machine.create () in
  let table = Tagging.Tag_table.create ~tag_bits:2 machine in
  let base =
    Vmm.Syscalls.ok_or_raise ~name:"wrap_demo"
      (Vmm.Syscalls.mmap machine ~pages:1)
  in
  let p0 = Tagging.Tag_table.register table ~base ~size:16 ~site:"wrap.c:1" in
  ignore (Tagging.Tag_table.free table p0 ~site:"wrap.c:2");
  for _ = 2 to 4 do
    let p = Tagging.Tag_table.register table ~base ~size:16 ~site:"wrap.c:1" in
    ignore (Tagging.Tag_table.free table p ~site:"wrap.c:2")
  done;
  ignore (Tagging.Tag_table.register table ~base ~size:16 ~site:"wrap.c:3");
  let passed =
    match Tagging.Tag_table.check_access table p0 ~access:Vmm.Perm.Read with
    | Some _ -> true
    | None -> false
    | exception Shadow.Report.Violation _ -> false
  in
  (Tagging.Tag_table.stats table, passed)

let run ~smoke () =
  print_endline
    "\n== Tagged backend (per-access checks vs shadow's syscalls and VA) ==";
  let ops = if smoke then 1_024 else 8_192 in
  let rows =
    List.map
      (fun (name, workload) ->
        let shadow, _ =
          Epoch_batching.measure
            (fun m -> Runtime.Schemes.shadow_pool m)
            workload ~ops
        in
        let tagged, tagged_scheme =
          Epoch_batching.measure (fun m -> Runtime.Schemes.tagged m) workload
            ~ops
        in
        let ts = tag_stats_of tagged_scheme in
        let checks_per_access =
          float_of_int ts.Tagging.Tag_table.tag_checks
          /. float_of_int (max 1 tagged.accesses)
        in
        Printf.printf
          "  %-6s shadow: %6.3f syscalls/op %6d VA pages | tagged: %6.3f \
           syscalls/op %6d VA pages, %.2f checks/access, table %d B\n"
          name shadow.per_op shadow.va_pages tagged.per_op tagged.va_pages
          checks_per_access ts.Tagging.Tag_table.table_bytes;
        (* the trade: at least 4x less VA and no protection syscalls, for
           a tag check per access that never faults a correct program *)
        Gate.require
          (tagged.va_pages * 4 <= shadow.va_pages)
          "tag_backend: tagged VA on %s not well under shadow's (%d vs %d \
           pages)"
          name tagged.va_pages shadow.va_pages;
        Gate.require (tagged.per_op = 0.0)
          "tag_backend: tagged backend on %s issued protection syscalls" name;
        Gate.require
          (ts.Tagging.Tag_table.tag_checks > 0)
          "tag_backend: tagged backend on %s recorded no tag checks" name;
        Gate.require
          (ts.Tagging.Tag_table.tag_faults = 0)
          "tag_backend: tagged backend on %s faulted on a correct workload"
          name;
        Gate.require
          (ts.Tagging.Tag_table.generation_wraps >= 0
          && ts.Tagging.Tag_table.wrap_masked_passes >= 0
          && ts.Tagging.Tag_table.table_bytes >= 0)
          "tag_backend: negative wrap or table counter on %s" name;
        J.Obj
          [
            ("workload", J.String name);
            ("heap_ops", J.Int tagged.heap_ops);
            ("shadow_syscalls_per_op", J.Float shadow.per_op);
            ("shadow_va_pages", J.Int shadow.va_pages);
            ("shadow_cycles", J.Float shadow.cycles);
            ("tagged_syscalls_per_op", J.Float tagged.per_op);
            ("tagged_va_pages", J.Int tagged.va_pages);
            ("tagged_cycles", J.Float tagged.cycles);
            ("tag_checks", J.Int ts.Tagging.Tag_table.tag_checks);
            ("tag_faults", J.Int ts.Tagging.Tag_table.tag_faults);
            ("generation_wraps", J.Int ts.Tagging.Tag_table.generation_wraps);
            ( "wrap_masked_passes",
              J.Int ts.Tagging.Tag_table.wrap_masked_passes );
            ("table_bytes", J.Int ts.Tagging.Tag_table.table_bytes);
            ("checks_per_access", J.Float checks_per_access);
          ])
      Epoch_batching.workloads
  in
  (* server row: the per-connection VA appetite of both backends *)
  let server_row =
    let run config =
      (Harness.Experiment.run_server ~config
         ~connections:(if smoke then 8 else 24) ~shards:1
         Workload.Servers.ghttpd)
        .F.totals
    in
    let shadow = run Runtime.Scheme_spec.ours in
    let tagged = run Runtime.Scheme_spec.tagged in
    Printf.printf
      "  ghttpd shadow: %6d VA bytes/conn | tagged: %6d VA bytes/conn\n"
      shadow.F.max_va_bytes tagged.F.max_va_bytes;
    Gate.require
      (tagged.F.max_va_bytes <= shadow.F.max_va_bytes)
      "tag_backend: tagged server burns more VA per connection than shadow";
    J.Obj
      [
        ("server", J.String "ghttpd");
        ("shadow_max_va_bytes_per_connection", J.Int shadow.F.max_va_bytes);
        ("tagged_max_va_bytes_per_connection", J.Int tagged.F.max_va_bytes);
        ("shadow_detections", J.Int shadow.F.detections);
        ("tagged_detections", J.Int tagged.F.detections);
      ]
  in
  let probe_outcomes =
    List.map
      (fun (name, sc) ->
        let detected = detected sc in
        Printf.printf "  probe %-24s detected=%b\n" name detected;
        Gate.require detected "tag_backend: probe %s not detected" name;
        (name, detected))
      probes
  in
  let probe_rows =
    List.map
      (fun (name, detected) ->
        J.Obj [ ("name", J.String name); ("detected", J.Bool detected) ])
      probe_outcomes
  in
  let missed =
    List.length (List.filter (fun (_, detected) -> not detected) probe_outcomes)
  in
  let wrap_stats, wrap_passed = wrap_demo () in
  Printf.printf
    "  wrap demo (tag_bits=2): %d wraps, %d attributed masked passes\n"
    wrap_stats.Tagging.Tag_table.generation_wraps
    wrap_stats.Tagging.Tag_table.wrap_masked_passes;
  Gate.require
    (wrap_stats.Tagging.Tag_table.generation_wraps > 0)
    "tag_backend: wrap demo recorded no generation wrap";
  Gate.require
    (wrap_stats.Tagging.Tag_table.wrap_masked_passes > 0)
    "tag_backend: wrap demo recorded no attributed masked pass";
  Gate.require wrap_passed
    "tag_backend: wrap demo masked pass not observed at the access site";
  print_endline "  -- tagged backend farm (ghttpd, 1/2/4/8 shards) --";
  let farm = Farm.sweep ~smoke ~name:"tagged" Runtime.Scheme_spec.tagged in
  J.Obj
    [
      ("ops", J.Int ops);
      ("rows", J.List rows);
      ("server", server_row);
      ("probes", J.List probe_rows);
      ("missed_probes", J.Int missed);
      ( "wrap",
        J.Obj
          [
            ("tag_bits", J.Int 2);
            ( "generation_wraps",
              J.Int wrap_stats.Tagging.Tag_table.generation_wraps );
            ( "wrap_masked_passes",
              J.Int wrap_stats.Tagging.Tag_table.wrap_masked_passes );
            ("masked_pass_observed", J.Bool wrap_passed);
          ] );
      ("farm_rows", J.List (List.map (fun r -> Farm.row_json r) farm));
    ]
