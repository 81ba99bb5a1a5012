(* Farm scaling study: the same connection set served at 1/2/4/8 shards.
   Time is simulated cycles (makespan = busiest shard), so the speedup
   column measures the sharding itself and is exactly reproducible on
   any host.  The determinism contract is checked right here, in
   [sweep], for every scheme the bench farms out: merged detections and
   syscalls must not move as the shard count changes. *)

module J = Telemetry.Json
module F = Danguard_farm.Farm
module Scheduler = Danguard_farm.Scheduler

let shard_counts = [ 1; 2; 4; 8 ]
let seed = 0x5eed
let probe_every = 8
let connections ~smoke = if smoke then 32 else 96

(* The probed ghttpd farm at every shard count under [config], printed
   one row per shard count; [name] labels the gate messages. *)
let sweep ~smoke ~name config =
  let results =
    List.map
      (fun shards ->
        F.run_server ~policy:Scheduler.Round_robin ~seed ~probe_every ~config
          ~shards ~connections:(connections ~smoke) Workload.Servers.ghttpd)
      shard_counts
  in
  let base = List.hd results in
  let d0 = base.F.totals.F.detections and s0 = base.F.totals.F.syscalls in
  Gate.require (d0 > 0) "farm %s: no detections (probes missing?)" name;
  Printf.printf "  %-7s %14s %12s %8s %11s %9s %12s\n" "shards" "makespan"
    "conn/Mcyc" "speedup" "detections" "syscalls" "p99 cycles";
  List.iter
    (fun (r : F.result) ->
      Printf.printf "  %-7d %14.0f %12.3f %7.2fx %11d %9d %12.0f\n" r.F.shards
        r.F.makespan_cycles r.F.throughput
        (base.F.makespan_cycles /. r.F.makespan_cycles)
        r.F.totals.F.detections r.F.totals.F.syscalls
        r.F.latency.Harness.Latency.q99;
      Gate.require
        (r.F.totals.F.detections = d0)
        "farm %s: %d detections at %d shards vs %d at 1" name
        r.F.totals.F.detections r.F.shards d0;
      Gate.require
        (r.F.totals.F.syscalls = s0)
        "farm %s: %d syscalls at %d shards vs %d at 1" name
        r.F.totals.F.syscalls r.F.shards s0)
    results;
  results

(* The fields every farm row records; [extra] adds a section's own. *)
let row_json ?(extra = []) (r : F.result) =
  J.Obj
    ([
       ("shards", J.Int r.F.shards);
       ("makespan_cycles", J.Float r.F.makespan_cycles);
       ("throughput_conn_per_mcycle", J.Float r.F.throughput);
       ("connections", J.Int r.F.totals.F.connections);
       ("detections", J.Int r.F.totals.F.detections);
       ("syscalls", J.Int r.F.totals.F.syscalls);
     ]
    @ extra)

let latency_json (r : F.result) =
  [
    ("latency_p50", J.Float r.F.latency.Harness.Latency.q50);
    ("latency_p99", J.Float r.F.latency.Harness.Latency.q99);
  ]

let run ~smoke () =
  print_endline "\n== Farm scaling (domain-sharded ghttpd, simulated cycles) ==";
  let results = sweep ~smoke ~name:"eager" Harness.Experiment.ours in
  let base = List.hd results in
  (* sharding must pay: at least 2x simulated throughput at 4 shards *)
  let t4 = (List.find (fun (r : F.result) -> r.F.shards = 4) results).F.throughput in
  Gate.require
    (t4 >= 2.0 *. base.F.throughput)
    "farm: 4 shards under 2x single-shard throughput (%.3f vs %.3f)" t4
    base.F.throughput;
  let rows =
    List.map
      (fun (r : F.result) ->
        row_json r
          ~extra:
            (( "speedup",
               J.Float (base.F.makespan_cycles /. r.F.makespan_cycles) )
            :: ( "shadow_va_pages_used",
                 J.Int
                   (int_of_float
                      (Telemetry.Metrics.gauge_value
                         (Telemetry.Metrics.gauge r.F.registry
                            "shadow.va_pages_used"))) )
            :: latency_json r))
      results
  in
  (* The same farm under the epoch-batched scheme: batching never costs
     a detection, and it must do strictly fewer syscalls. *)
  print_endline "  -- epoch-batched scheme (shadow-pool+epoch) --";
  let epoch = sweep ~smoke ~name:"epoch" Harness.Experiment.ours_epoch in
  let ebase = List.hd epoch in
  Gate.require
    (ebase.F.totals.F.detections = base.F.totals.F.detections)
    "farm: epoch detections %d differ from eager %d"
    ebase.F.totals.F.detections base.F.totals.F.detections;
  Gate.require
    (ebase.F.totals.F.syscalls < base.F.totals.F.syscalls)
    "farm: epoch did not cut syscalls (%d vs eager %d)"
    ebase.F.totals.F.syscalls base.F.totals.F.syscalls;
  J.Obj
    [
      ("server", J.String "ghttpd");
      ("config", J.String "our-approach");
      ("connections", J.Int (connections ~smoke));
      ("probe_every", J.Int probe_every);
      ("seed", J.Int seed);
      ("rows", J.List rows);
      ( "epoch_rows",
        J.List (List.map (fun r -> row_json r ~extra:(latency_json r)) epoch) );
    ]
