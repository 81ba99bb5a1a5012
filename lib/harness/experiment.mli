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
  ?connections:int ->
  Workload.Spec.server ->
  Runtime.Scheme_spec.t ->
  Runtime.Process.server_run
(** Serve N forked connections; the per-connection response time is the
    server metric (paper §4.1 measures client response time). *)
