(** The endurance controller: couples {!Shadow.Va_budget} pressure to
    the ordered §3.4 response.

    Rising VA pressure is answered in escalation order, cheapest and
    least lossy first:

    + {b GC} ([L_gc] and above): run the conservative {!Shadow.Gc} —
      reclamation that provably preserves the detection guarantee.
    + {b Tighten} (crossing [L_tighten]): divide the reuse policy's
      trigger threshold, so reclamation fires earlier from now on.
    + {b Degrade} (crossing [L_degrade]): trip the {!Governor} one step
      down (reason ["va-pressure"]) — detection coverage is traded away
      only after both recycling levers are exhausted.

    Tightening and degradation fire once per upward watermark crossing;
    GC runs on every {!tick} while pressure persists (it is the lever
    that actually relieves it).  Every action is recorded in an ordered
    log — the bench's ladder row asserts gc-first → tighten → degrade
    from it — and the underlying budget/GC/governor each emit their own
    telemetry ([Va_pressure], [Gc_run], [Mode_change]). *)

type action =
  | Ran_gc
  | Tightened
  | Degraded

val action_label : action -> string
(** ["gc"], ["tighten"], ["degrade"]. *)

type entry = {
  action : action;
  at_level : Shadow.Va_budget.level;
  at_pages_used : int;
}

type t

val create :
  ?policy:Shadow.Reuse_policy.t ->
  ?governor:Governor.t ->
  budget:Shadow.Va_budget.t ->
  Shadow.Gc.t ->
  t
(** [policy] is the reuse policy to tighten (omitted: the tighten stage
    is a no-op); [governor] the ladder to trip (omitted: the degrade
    stage is a no-op).  Each tightening divides the current trigger by
    4, floored at one page. *)

val tick : t -> Shadow.Gc.report option
(** Poll the budget and run the escalation; returns the GC report if a
    collection ran.  Call periodically — per connection, per epoch
    retirement, or per [n] frees. *)

val actions : t -> entry list
(** Ordered action log, oldest first. *)

val budget : t -> Shadow.Va_budget.t
val gc : t -> Shadow.Gc.t
