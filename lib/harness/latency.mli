(** Server response-time distributions.

    Table 1 reports mean response time; for a production-server argument
    the tail matters too.  This study serves a synthetic web workload
    with heavy-tailed response sizes (file sizes spanning two orders of
    magnitude) and reports percentiles per configuration.  The scheme's
    cost is a near-constant few syscalls per connection, so its relative
    overhead {e shrinks} toward the tail — large requests amortize it —
    which is exactly why the paper targets servers. *)

val study :
  ?connections:int ->
  unit ->
  (Runtime.Scheme_spec.t * Telemetry.Histogram.quantiles) list
(** Native, LLVM-base and Ours, same request sequence: each config's
    percentiles of cycles per connection, from its farm run's merged
    latency histogram. *)

val render : (Runtime.Scheme_spec.t * Telemetry.Histogram.quantiles) list -> string
