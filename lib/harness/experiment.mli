(** Running a workload under a scheme spec and harvesting the numbers
    the paper's tables report.

    A configuration is a {!Runtime.Scheme_spec.t}: it picks both the
    cost-model profile (native GCC vs LLVM-base code quality, via
    {!Runtime.Scheme_spec.cost_profile}) and the protection scheme (via
    {!Runtime.Scheme_spec.build}), mirroring the columns of Tables 1
    and 3. *)

type result = {
  cycles : float;
  stats : Vmm.Stats.snapshot;
  peak_frames : int;
  va_bytes : int;
  extra_memory_bytes : int;
}

val all_configs : Runtime.Scheme_spec.t list
(** The original tables' columns in column order: native, llvm-base,
    pa, pa+dummy, ours, ours (no pools), ours+bounds, and the three
    baselines.  The epoch/static/inferred/tagged variants are measured
    by their dedicated bench sections, not the paper tables. *)

val make_scheme :
  Runtime.Scheme_spec.t ->
  ?pa_quality_gain:float ->
  ?trace:Telemetry.Sink.t ->
  unit ->
  Runtime.Scheme.t
(** Fresh machine (with the config's cost profile) plus scheme.
    [pa_quality_gain] adjusts code quality under the pool-based configs
    only, modeling APA's locality effect on that workload.  [trace]
    attaches an event sink to the machine ({!Vmm.Machine.create}). *)

val run_batch :
  ?scale:int -> Workload.Spec.batch -> Runtime.Scheme_spec.t -> result
(** Run a utility/Olden workload to completion under a fresh machine. *)

val run_server :
  ?policy:Danguard_farm.Scheduler.policy ->
  ?seed:int ->
  ?probe_every:int ->
  ?probe_sites:int ->
  ?recover:bool ->
  ?trace_capacity:int ->
  ?config:Runtime.Scheme_spec.t ->
  ?connections:int ->
  shards:int ->
  Workload.Spec.server ->
  Danguard_farm.Farm.result
(** Serve one of the paper's daemons on {!Danguard_farm.Farm.run}, a
    fresh {!make_scheme} per forked connection (default [Ours];
    connections default to the server's own default).  Table 1 and
    [danguard run] serve on one shard; the per-connection response time
    is the server metric (paper §4.1 measures client response time). *)

val total_cycles : Danguard_farm.Farm.result -> float
(** Simulated cycles of every connection served: the sum of the shards'
    busy cycles. *)

val mean_cycles_per_connection : Danguard_farm.Farm.result -> float
(** {!total_cycles} over the connections served. *)
