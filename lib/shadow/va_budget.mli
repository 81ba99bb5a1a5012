(** Virtual-address budget accounting with pressure watermarks.

    The §3.4 exhaustion story needs an actor that notices the slope
    before the cliff: this module tracks how much of a configured VA
    budget a machine has consumed and classifies the fraction into
    pressure levels whose order encodes the endurance response —
    {e first} run the conservative {!Gc}, {e then} tighten the reuse
    thresholds, and only as a last resort degrade the protection ladder
    (the governor's trip input).  Every level crossing is recorded and
    emitted as a [Va_pressure] trace event, and each {!poll} refreshes
    the [shadow.va_pages_used] gauge.

    Accounting is per-machine ({!used_pages}: total VA ever handed out,
    the paper's exhaustion metric — deliberately monotone).  The
    watermarks sit at 50%, 75% and 90% of the budget.
    Time-to-exhaustion projections reuse the {!Exhaustion}
    arithmetic. *)

type level =
  | L_ok  (** below every watermark *)
  | L_gc  (** run the conservative GC *)
  | L_tighten  (** also tighten reuse trigger thresholds *)
  | L_degrade  (** also trip the governor's ladder *)

val level_label : level -> string
(** ["ok"], ["gc"], ["tighten"], ["degrade"]. *)

val level_rank : level -> int
(** 0–3, monotone in severity — for ordering assertions. *)

type transition = {
  from_level : level;
  to_level : level;
  at_pages_used : int;
}

type t

val create : budget_pages:int -> Vmm.Machine.t -> t
(** A budget of [budget_pages] pages.  Raises [Invalid_argument] on a
    non-positive budget. *)

val used_pages : t -> int
(** Pages of VA the machine has ever handed out
    ({!Vmm.Machine.va_bytes_used}). *)

val remaining_pages : t -> int
(** [max 0 (budget - used)]. *)

val level : t -> level
(** Level as of the last {!poll}. *)

val poll : t -> level
(** Re-read the machine, update the [shadow.va_pages_used] gauge,
    record (and emit) a transition if the level changed, and return the
    current level. *)

val transitions : t -> transition list
(** All level changes, oldest first. *)

val seconds_until_exhaustion : t -> pages_per_second:float -> float option
(** Projection of when the {e remaining} budget runs out at the given
    burn rate, via {!Exhaustion.seconds_until_exhaustion}.  [None] for
    a zero rate (never exhausts); [Some 0.] when already exhausted.
    Raises [Invalid_argument] on a negative or NaN rate. *)

val hours_until_exhaustion : t -> pages_per_second:float -> float option
