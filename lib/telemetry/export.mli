(** Exporters for recorded events: pretty text, JSON-lines, and the
    Chrome [trace_event] format (loadable in [about://tracing] and
    Perfetto).

    Chrome timestamps are microseconds; logical cycles are converted at
    1 GHz (1000 cycles = 1 us), which keeps traces readable without
    pretending to wall-clock accuracy. *)

val to_jsonl : Event.t list -> string
(** One flat [{"seq", "cycles", "type", "cat", ...args}] object per
    line. *)

val to_chrome_string : ?pid:int -> ?tid:int -> Event.t list -> string

val chrome_trace_grouped :
  ?name_of_pid:(int -> string) -> (int * int * Event.t list) list -> Json.t
(** Multi-lane trace: each [(pid, tid, events)] group renders as its
    own process/thread lane — the farm passes one group per shard, so
    a trace of an 8-shard run shows 8 labelled lanes instead of one
    merged pile.  [name_of_pid] names the process lanes (default
    ["shard %d"]) via [process_name] metadata records. *)

val to_chrome_string_grouped :
  ?name_of_pid:(int -> string) -> (int * int * Event.t list) list -> string

val derived_to_json : Metrics.t -> Json.t
(** Ratios derived from the registry's raw counters, as a flat
    [{"name": value}] object: currently ["vmm.syscalls_per_op"] —
    protection syscalls (mremap + mprotect + munmap) per heap operation
    (alloc + free) — present only when the registry saw allocator
    traffic ([vmm.alloc_ops + vmm.free_ops > 0]). *)

val to_prometheus : Metrics.t -> string
(** Prometheus text exposition of a registry: counters (name suffixed
    [_total] when missing), gauges, and histograms as summaries
    (quantiles 0.5/0.9/0.99 plus [_sum]/[_count]).  A metric name may
    carry a literal label block — [crash_total{signature="..."}] — the
    block passes through verbatim and only the base name is sanitised
    to the metric-name grammar; one [# TYPE] line is emitted per base
    family.  The derived ratios ({!derived_to_json}) are appended as
    gauges. *)

val to_text : Event.t list -> string
(** One pretty line per event. *)
