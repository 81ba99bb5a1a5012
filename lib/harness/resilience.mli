(** Fault-injection campaign for the governed shadow-page runtime.

    Sweeps {!plans} (deterministic {!Vmm.Fault_plan}s: none, transient
    rates on the two guarantee-critical syscalls, a failure burst, a
    one-shot fatal, and modeled address-space exhaustion) against the
    Olden workloads under {!Runtime.Governed} schemes, then asserts the
    robustness invariants of the degradation design:

    - {b no undiagnosed crash}: every workload completes; a syscall
      failure may degrade detection but never kills the program;
    - {b full detection in full mode}: with no faults injected, the
      post-run probes (read-/write-after-free, double-free) are all
      caught;
    - {b attributable misses only}: a probe that slips through is
      explained by the governed scheme's own records (the victim lived
      unprotected, or the ladder was below [Full]) — never a surprise.

    The campaign's rows land in BENCH_results.json under ["resilience"];
    {!ok} is the gate both [danguard faults] and the bench apply. *)

type plan_spec = {
  p_name : string;
  p_description : string;
  rules : Vmm.Fault_plan.rule list;
}

val plans : plan_spec list

type scheme_kind =
  | Governed_pool
  | Governed_basic

val scheme_kind_label : scheme_kind -> string

type row = {
  plan : string;
  scheme : string;
  workload : string;
  completed : bool;
  crash : string option;  (** an {e undiagnosed} failure — must be [None] *)
  faults_injected : int;
  retries : int;
  transitions : int;
  final_mode : string;
  unprotected_allocs : int;
  unprotected_frees : int;
  probes_detected : int;
  probes_missed_attributed : int;
  probes_missed_unattributed : int;
  probe_outcomes : (string * string) list;
}

val run_one :
  ?seed:int ->
  plan_spec ->
  scheme_kind ->
  Workload.Spec.batch ->
  scale:int ->
  row

val campaign :
  ?scale_divisor:int ->
  ?seed:int ->
  ?workloads:Workload.Spec.batch list ->
  unit ->
  row list
(** The full sweep; [workloads] defaults to the Olden set. *)

val undiagnosed_crashes : row list -> row list
val unattributed_misses : row list -> int

val ok : row list -> bool
(** No undiagnosed crashes and no unattributed misses. *)

val render : row list -> string
val to_json : row list -> Telemetry.Json.t
