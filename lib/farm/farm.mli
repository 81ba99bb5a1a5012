(** A domain-sharded server farm: the paper's fork-per-connection
    daemons scaled across OCaml domains.

    Each shard is a domain running its share of the connections, every
    connection a fresh machine + scheme ({!Runtime.Process.run_connection}),
    so shards share {e nothing} on the hot path: per-shard metrics
    registries and latency histograms are merged once at join
    ({!Telemetry.Metrics.merge}).  This is the only loop that serves
    connections: every server experiment (Table 1's server rows, the
    latency and address-space studies, the CLI's [run], [farm] and
    [report]) runs through {!run}, with one shard on the calling domain
    where it wants a sequential server.

    Determinism contract: a connection's behaviour depends only on its
    index, so the merged totals — detections, syscalls, the latency
    histogram — are identical for any (shards, policy) at a fixed seed;
    under {!Scheduler.Round_robin} the per-shard assignment and the
    makespan are deterministic too.  Time is simulated cycles: the
    farm's makespan is the busiest shard's cycle total, so measured
    speedup reflects the sharding itself, not the host's core count. *)

type totals = {
  connections : int;  (** connections served, summed over shards *)
  detections : int;   (** children that died on a caught violation *)
  syscalls : int;     (** mmap + munmap + mremap + mprotect + dummy *)
  max_va_bytes : int; (** largest per-connection VA footprint seen *)
  stats : Vmm.Stats.snapshot;  (** merged per-child event counters *)
}

type shard_report = {
  shard : int;
  served : int;
  busy_cycles : float;
  shard_detections : int;
  shard_crashes : int;  (** crash reports recorded by this shard's sink *)
}

type result = {
  shards : int;
  policy : Scheduler.policy;
  seed : int;
  totals : totals;
  makespan_cycles : float;
      (** max over shards of per-shard simulated busy cycles *)
  throughput : float;
      (** connections per million simulated cycles of makespan *)
  latency : Telemetry.Histogram.quantiles;
      (** percentiles of the merged per-connection cycles histogram *)
  per_shard : shard_report list;
  registry : Telemetry.Metrics.t;
      (** the merged registry: "farm.*", every child machine's registry
          merged in (its "vmm.*" counters and its scheme's own, e.g.
          "recover.*" under [~recover:true]), and the "fleet.*" crash
          counters of {!crashes} *)
  crashes : Fleet.Crash.fleet_report;
      (** per-shard crash sinks merged at join — ranked, deduped by
          stack signature, deterministic for any (shards, policy) *)
  traces : (int * Telemetry.Event.t list) list;
      (** per-shard [(shard, events)] when [trace_capacity] > 0 (feed to
          {!Telemetry.Export.chrome_trace_grouped}); [[]] otherwise *)
}

val probe_counts :
  probe_sites:int -> probe_every:int -> connections:int -> int array
(** The seeded probe population of a run over [connections]: element
    [i] is the number of probed connections that exercise injection
    site [i] (site [0] only when [probe_sites] is 1).  Its sum is the
    probe count a run seeds; all zero when [probe_every <= 0]. *)

val check_recovered : probe_sites:int -> probe_every:int -> result -> string list
(** The gates of a [~recover:true] run seeded with the given probes: no
    violation escaped recovery (zero detections), and the crash reports
    number at least the seeded {!probe_counts}.  One message per broken
    gate; [[]] when both hold. *)

val run :
  ?policy:Scheduler.policy ->
  ?seed:int ->
  ?probe_every:int ->
  ?probe_sites:int ->
  ?recover:bool ->
  ?trace_capacity:int ->
  make_scheme:(shard:int -> trace:Telemetry.Sink.t -> unit -> Runtime.Scheme.t) ->
  handler:(int -> Runtime.Scheme.t -> unit) ->
  shards:int ->
  connections:int ->
  unit ->
  result
(** Serve [connections] across [shards] domains.

    [probe_every] > 0 appends a dangling-use probe to every k-th
    connection (by index, so probed connections are the same set at any
    shard count): detecting schemes record them as detections, others
    silently read reused memory.  [probe_sites] (default 1) spreads the
    probes geometrically over that many distinct injection sites, each
    with its own bug flavour (use-after-free read/write, double free) —
    the seeded workload for the fleet crash dashboard.

    [recover] wraps every connection's scheme in
    {!Runtime.Schemes.recoverable}: violations are recorded in the
    shard's crash sink and the connection {e finishes}; [detections]
    stays 0 because no child dies.  Without it, the report a dying
    child was caught with is recorded instead, so the crash pipeline
    sees every violation in both modes.

    [trace_capacity] > 0 attaches one event ring of that capacity per
    shard, with timestamps offset to the shard's busy-cycle clock so
    each shard renders as a monotone trace lane.

    [make_scheme] receives the serving shard and the shard's trace sink
    (a disabled sink when tracing is off).  Default policy
    {!Scheduler.Round_robin}, seed [0x5eed], no probes. *)
