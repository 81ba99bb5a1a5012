(** Fleet-wide crash reports: the observability layer over
    {!Shadow.Report.Violation}.

    A production deployment of the paper's detector does not get to
    inspect a debugger — it gets a stream of trap reports from many
    worker processes.  This module turns each violation into a
    structured {!report}, dedups reports by a stable {e stack
    signature} (a hash of allocation site × free site × violation
    kind, the identity of the {e bug} rather than of the individual
    trap), and merges per-shard report sinks into one ranked fleet
    view: which bugs fire most, on how many shards, and when they were
    first and last seen. *)

type report = {
  kind : string;  (** {!Shadow.Report.kind_label} of the violation *)
  fault_addr : Vmm.Addr.t;
  offset : int option;  (** byte offset in the object, when known *)
  object_size : int option;
  alloc_site : string;  (** ["<unknown>"] for wild accesses *)
  free_site : string;  (** ["<none>"] when the object was never freed *)
  scheme : string;  (** detecting scheme's [Scheme.name] *)
  shard : int;  (** farm shard that observed the trap *)
  at_cycles : int;
      (** logical timestamp: the observing connection's machine-cycle
          clock, which depends only on the connection's own work — so
          timestamps are identical however connections land on shards *)
}

val of_violation :
  scheme:string -> shard:int -> at_cycles:int -> Shadow.Report.t -> report

val signature : report -> int64
(** Stable stack signature: FNV-1a 64-bit hash of
    [kind ^ "|" ^ alloc_site ^ "|" ^ free_site].  Two traps from the
    same (bug site, violation kind) always collide; the fault address,
    shard, and timing never enter the hash. *)

val signature_hex : int64 -> string
(** 16-digit lower-case hex, the signature's external spelling. *)

(** {1 Per-shard sinks} *)

type sink
(** An append-only crash-report sink.  Not thread-safe: the farm gives
    each shard its own sink and merges after join. *)

val create_sink : unit -> sink
val record : sink -> report -> unit

val sink_count : sink -> int

(** {1 Fleet merge} *)

type entry = {
  e_signature : int64;
  e_kind : string;
  e_alloc_site : string;
  e_free_site : string;
  count : int;  (** total reports with this signature *)
  shards : int list;  (** distinct shards that saw it, ascending *)
  first_seen : int;  (** min [at_cycles] over the signature's reports *)
  last_seen : int;  (** max [at_cycles] *)
  sample : report;  (** deterministic exemplar: minimal [(at_cycles, fault_addr)] *)
}

type fleet_report = {
  entries : entry list;  (** ranked: by [count] desc, then by
                             [(kind, alloc_site, free_site)] asc *)
  total_reports : int;
}

val merge : sink list -> fleet_report
(** Deterministic: the result depends only on the multiset of reports,
    not on sink order or how reports were distributed across sinks. *)

val impact : entry -> int
(** [count × distinct shards] — the dashboard's "blast radius" column.
    Display-only: shard placement under work stealing is racy, so
    impact is {e not} part of the ranking or of {!canonical_string}. *)

val canonical_string : fleet_report -> string
(** The byte-identical-across-shard-counts artifact: one header line
    plus one line per ranked entry
    ([rank|signature|count|first|last|kind|alloc_site|free_site]).
    Deliberately excludes shard lists, impact, and sample addresses'
    shard field — everything whose value depends on scheduling. *)

val render : fleet_report -> string
(** Human dashboard table (includes shards and impact). *)

val to_json : fleet_report -> Telemetry.Json.t

val register_metrics : Telemetry.Metrics.t -> fleet_report -> unit
(** Publish the report into a metrics registry: one
    [fleet.crash_total{signature=...,kind=...,alloc_site=...}] counter
    per entry, plus [fleet.reports_total] and the [fleet.signatures]
    gauge.  Idempotent ([set_counter], not [incr]): re-registering the
    same report leaves the registry unchanged. *)
