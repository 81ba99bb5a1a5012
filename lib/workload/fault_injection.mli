(** Seeded temporal and spatial bugs, and the one classifier of their
    outcome.  Each scenario commits a specific bug under a given scheme
    and records whether the scheme caught it, missed it silently, or
    crashed without diagnosis.  Every judged probe in the tree runs
    through here: the detection-guarantee matrix (the experimental
    counterpart of the paper's §5 comparison), the governed-runtime
    fault campaign, and the bench's epoch and tagged-backend probes. *)

type outcome =
  | Detected of Shadow.Report.t  (** scheme raised a diagnosed violation *)
  | Silent of int
      (** the bad access went through; carries the (stale or reused)
          value that was read *)
  | Crashed of string
      (** undiagnosed fault, allocator corruption or unhandled syscall
          failure *)
  | Crashed_degraded of string
      (** same crash shape, but while a {!Runtime.Governed} scheme was
          running below [Full] protection — attributable to a recorded
          degradation window rather than an undiagnosed runtime bug *)

type scenario = {
  sc_name : string;
  sc_description : string;
  inject : Runtime.Scheme.t -> Vmm.Addr.t * outcome;
      (** commit the bug; returns the victim object's address (for
          attribution, e.g. {!Runtime.Governed.was_unprotected}) and
          the outcome *)
}

val observe : (unit -> int) -> outcome
(** Run the bad access and classify it: a {!Shadow.Report.Violation}
    is [Detected], a {!Vmm.Fault.Trap}, a corrupted allocator or an
    unhandled {!Vmm.Fault_plan.Syscall_failure} is [Crashed], and a
    normal return is [Silent] with the value it produced. *)

val read_after_free : scenario
(** Free an object, immediately read through the stale pointer. *)

val write_after_free : scenario
val double_free : scenario

val use_after_pool_destroy : scenario
(** Allocate from a pool, destroy the pool, read through the stale
    pointer.  Not in {!all}, so the detection matrix keeps its five
    temporal columns; the tagged-backend bench probes it. *)

val dangling_after_many_allocations : int -> scenario
(** Parameterised gap between the free and the stale use. *)

val all : scenario list
(** The temporal scenarios (the paper's scope). *)

val spatial : scenario list
(** Buffer-overflow scenarios — out of scope for the base scheme, caught
    by the combined spatial+temporal configuration. *)

val outcome_label : outcome -> string

val reclassify : degraded:bool -> outcome -> outcome
(** Re-label a [Crashed] outcome as [Crashed_degraded] when the scheme
    was known to be running degraded at observation time; all other
    outcomes pass through unchanged. *)
