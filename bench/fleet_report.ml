(* Fleet crash-report study: the same seeded probe population served in
   recoverable (log-don't-abort) mode at 1/2/4/8 shards under both
   scheduler policies.  The contract, checked here: every run passes
   [Farm.check_recovered] with no surplus report, the ranked report —
   its canonical string — is byte-identical across all eight runs, and
   every seeded injection site surfaces as exactly one signature whose
   count matches the seeded probe population. *)

module J = Telemetry.Json
module F = Danguard_farm.Farm
module Scheduler = Danguard_farm.Scheduler

let shard_counts = [ 1; 2; 4; 8 ]
let seed = 0x5eed
let probe_every = 4
let probe_sites = 4

let run ~smoke () =
  print_endline
    "\n== Fleet crash reports (recoverable mode, ranked by signature) ==";
  let connections = if smoke then 48 else 96 in
  let site_counts = F.probe_counts ~probe_sites ~probe_every ~connections in
  let expected_probes = Array.fold_left ( + ) 0 site_counts in
  let runs =
    List.concat_map
      (fun policy ->
        List.map
          (fun shards ->
            ( policy,
              shards,
              Harness.Experiment.run_server ~policy ~seed ~probe_every
                ~probe_sites ~recover:true ~config:Runtime.Scheme_spec.ours
                ~shards ~connections Workload.Servers.ghttpd ))
          shard_counts)
      [ Scheduler.Round_robin; Scheduler.Work_steal ]
  in
  let _, _, first = List.hd runs in
  print_string (Fleet.Crash.render first.F.crashes);
  Printf.printf "  (%d probes seeded over %d sites; %d runs compared)\n"
    expected_probes probe_sites (List.length runs);
  let canonical0 = Fleet.Crash.canonical_string first.F.crashes in
  let rows =
    List.map
      (fun (policy, shards, (r : F.result)) ->
        let where =
          Printf.sprintf "fleet_report %s/%d shards"
            (Scheduler.policy_label policy) shards
        in
        List.iter
          (fun m -> Gate.fail (where ^ ": " ^ m))
          (F.check_recovered ~probe_sites ~probe_every r);
        Gate.require
          (r.F.crashes.Fleet.Crash.total_reports <= expected_probes)
          "%s: %d reports for %d seeded probes" where
          r.F.crashes.Fleet.Crash.total_reports expected_probes;
        let canonical = Fleet.Crash.canonical_string r.F.crashes in
        Gate.require (canonical = canonical0)
          "%s: ranked report differs from the first run's" where;
        J.Obj
          [
            ("policy", J.String (Scheduler.policy_label policy));
            ("shards", J.Int shards);
            ("detections", J.Int r.F.totals.F.detections);
            ( "total_reports",
              J.Int r.F.crashes.Fleet.Crash.total_reports );
            ( "signatures",
              J.Int (List.length r.F.crashes.Fleet.Crash.entries) );
            ("canonical", J.String canonical);
          ])
      runs
  in
  let entries = first.F.crashes.Fleet.Crash.entries in
  let expected_sites =
    List.filter_map
      (fun site ->
        if site_counts.(site) = 0 then None
        else Some (Printf.sprintf "farm.c:1%02d" site, site_counts.(site)))
      (List.init probe_sites Fun.id)
  in
  Gate.require
    (List.length entries = List.length expected_sites)
    "fleet_report: %d signatures for %d seeded sites" (List.length entries)
    (List.length expected_sites);
  List.iter
    (fun (alloc, want) ->
      match
        List.filter
          (fun (e : Fleet.Crash.entry) -> e.Fleet.Crash.e_alloc_site = alloc)
          entries
      with
      | [ e ] ->
        Gate.require (e.Fleet.Crash.count = want)
          "fleet_report: site %s has count %d (seeded %d)" alloc
          e.Fleet.Crash.count want
      | [] -> Gate.fail ("fleet_report: seeded site " ^ alloc ^ " missing")
      | _ ->
        Gate.fail
          ("fleet_report: seeded site " ^ alloc
         ^ " appears under several signatures"))
    expected_sites;
  J.Obj
    [
      ("server", J.String "ghttpd");
      ("config", J.String "our-approach");
      ("connections", J.Int connections);
      ("probe_every", J.Int probe_every);
      ("probe_sites", J.Int probe_sites);
      ("seed", J.Int seed);
      ("expected_probes", J.Int expected_probes);
      ( "expected_sites",
        J.List
          (List.map
             (fun (alloc, count) ->
               J.Obj
                 [ ("alloc_site", J.String alloc); ("count", J.Int count) ])
             expected_sites) );
      ( "entries",
        J.List
          (List.map
             (fun (e : Fleet.Crash.entry) ->
               J.Obj
                 [
                   ( "signature",
                     J.String (Fleet.Crash.signature_hex e.Fleet.Crash.e_signature)
                   );
                   ("kind", J.String e.Fleet.Crash.e_kind);
                   ("alloc_site", J.String e.Fleet.Crash.e_alloc_site);
                   ("free_site", J.String e.Fleet.Crash.e_free_site);
                   ("count", J.Int e.Fleet.Crash.count);
                 ])
             entries) );
      ("rows", J.List rows);
    ]
