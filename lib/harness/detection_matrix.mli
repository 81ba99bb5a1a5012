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

type matrix = Runtime.Scheme_spec.t list * Workload.Fault_injection.scenario list
(** The configurations (rows) and the scenarios (columns) of a matrix. *)

val temporal : matrix
(** Native, Ours, Ours_basic, Efence, Valgrind, Capability under
    {!Workload.Fault_injection.all}. *)

val spatial : matrix
(** Buffer-overflow scenarios: only the combined spatial+temporal
    configuration (and, for page-crossing cases, Electric Fence's guard
    pages) catches them. *)

val run : matrix -> cell list
(** Every scenario under every configuration, each on a fresh scheme. *)

val render : cell list -> string

val guaranteed_configs : cell list -> Runtime.Scheme_spec.t list
(** Configurations, in row order, that detected every scenario they
    ran. *)
