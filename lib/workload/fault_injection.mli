(** Temporal-error injection scenarios, used by the detection-guarantee
    matrix (the experimental counterpart of the paper's §5 comparison):
    each scenario commits a specific bug under a given scheme, and the
    harness records whether the scheme caught it, missed it silently, or
    crashed without diagnosis. *)

type outcome =
  | Detected of Shadow.Report.t  (** scheme raised a diagnosed violation *)
  | Silent of int
      (** the bad access went through; carries the (stale or reused)
          value that was read *)
  | Crashed of string  (** undiagnosed fault or allocator corruption *)
  | Crashed_degraded of string
      (** same crash shape, but while a {!Runtime.Governed} scheme was
          running below [Full] protection — attributable to a recorded
          degradation window rather than an undiagnosed runtime bug *)

type scenario = {
  sc_name : string;
  sc_description : string;
  inject : Runtime.Scheme.t -> outcome;
}

val read_after_free : scenario
(** Free an object, immediately read through the stale pointer. *)

val double_free : scenario

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
