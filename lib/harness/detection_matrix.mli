(** The detection-guarantee matrix: every injected temporal-error
    scenario run under every scheme.  This is the experimental form of
    the paper's related-work argument (§5): the shadow-page scheme,
    Electric Fence and capability checking catch everything; the plain
    allocator misses (or corrupts) silently; quarantine heuristics catch
    an immediate use-after-free but miss it once the memory has been
    re-allocated. *)

type cell = {
  config : Runtime.Scheme_spec.t;
  scenario : string;
  outcome : Workload.Fault_injection.outcome;
}

val configs : Runtime.Scheme_spec.t list
(** Native, Ours, Ours_basic, Efence, Valgrind, Capability. *)

val run : unit -> cell list

val run_spatial : unit -> cell list
(** Buffer-overflow scenarios: only the combined spatial+temporal
    configuration (and, for page-crossing cases, Electric Fence's guard
    pages) catches them. *)

val render : cell list -> string

val guaranteed_configs : cell list -> Runtime.Scheme_spec.t list
(** Configurations that detected every injected scenario. *)
