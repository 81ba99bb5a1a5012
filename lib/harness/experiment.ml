type result = {
  cycles : float;
  stats : Vmm.Stats.snapshot;
  peak_frames : int;
  va_bytes : int;
  extra_memory_bytes : int;
}

(* The paper tables' columns, in column order.  The epoch/static/
   inferred/tagged variants are measured by their dedicated bench
   sections, not the original tables. *)
let all_configs =
  Runtime.Scheme_spec.
    [
      native;
      llvm_base;
      pa;
      pa_dummy;
      ours;
      ours_basic;
      ours_bounds;
      efence;
      valgrind;
      capability;
    ]

let make_scheme config ?(pa_quality_gain = 1.0) ?trace () =
  let machine =
    Vmm.Machine.create
      ~cost:(Runtime.Scheme_spec.cost_profile config ~pa_quality_gain)
      ?trace ()
  in
  Runtime.Scheme_spec.build config machine

let harvest (scheme : Runtime.Scheme.t) =
  let machine = scheme.Runtime.Scheme.machine in
  {
    cycles = Vmm.Machine.cycles machine;
    stats = Vmm.Stats.snapshot machine.Vmm.Machine.stats;
    peak_frames = Vmm.Frame_table.peak_frames machine.Vmm.Machine.frames;
    va_bytes = Vmm.Machine.va_bytes_used machine;
    extra_memory_bytes = scheme.Runtime.Scheme.extra_memory_bytes ();
  }

let run_batch ?scale (batch : Workload.Spec.batch) config =
  let scale = Option.value scale ~default:batch.Workload.Spec.default_scale in
  let scheme =
    make_scheme config ~pa_quality_gain:batch.Workload.Spec.pa_quality_gain ()
  in
  batch.Workload.Spec.run scheme ~scale;
  harvest scheme

module Farm = Danguard_farm.Farm

let run_server ?policy ?seed ?probe_every ?probe_sites ?recover ?trace_capacity
    ?(config = Runtime.Scheme_spec.ours) ?connections ~shards
    (server : Workload.Spec.server) =
  let connections =
    Option.value connections ~default:server.Workload.Spec.s_default_connections
  in
  Farm.run ?policy ?seed ?probe_every ?probe_sites ?recover ?trace_capacity
    ~make_scheme:(fun ~shard:_ ~trace () -> make_scheme config ~trace ())
    ~handler:server.Workload.Spec.handler ~shards ~connections ()

let total_cycles (r : Farm.result) =
  List.fold_left (fun acc sr -> acc +. sr.Farm.busy_cycles) 0. r.Farm.per_shard

let mean_cycles_per_connection r =
  total_cycles r /. float_of_int (max 1 r.Farm.totals.Farm.connections)
