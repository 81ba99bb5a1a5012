(** §3.4 mitigation strategies for {e long-lived} pools (pools reachable
    from globals, or created in [main]), whose shadow pages are never
    released by [pooldestroy] in practice.

    - {!Interval_reuse}: once the pool retains more than a threshold of
      freed-but-protected shadow pages, release them for reuse.  Cheap,
      but any dangling use of those objects afterwards is no longer
      guaranteed to trap — the paper argues the probability is
      unimportant at realistic thresholds (hours of allocations).
    - {!Conservative_gc}: at the same trigger, run the attached
      collector ([~gc] at {!create}) to find ranges stale pointers could
      still reach.  Witnessed ranges stay pinned and only
      proven-unreferenced ones are released — the detection guarantee
      survives reclamation.
    - {!Manual}: never reclaim; the programmer restructured the code
      instead. *)

type strategy =
  | Interval_reuse of { trigger_pages : int }
  | Conservative_gc of { trigger_pages : int; scan_cost_per_object : int }
      (** [scan_cost_per_object] is not read: the collector charges its
          own scan cost per word examined ({!Gc.create}'s
          [cost_per_word]). *)
  | Manual

type t

val create : ?gc:Gc.t -> strategy -> Shadow_pool.t -> t
(** [gc] arms {!Conservative_gc} with the real mark phase and is
    required for it; it must be bound to the same pool.  Raises
    [Invalid_argument] on a {!Conservative_gc} without [gc] or a [gc]
    bound to another pool. *)

val after_free : t -> unit
(** Call after each [poolfree] on the managed pool; runs the strategy's
    trigger check and possibly a reclamation.  A no-op once the managed
    pool has been destroyed (the hook may race a [pooldestroy]). *)

val attach : t -> unit
(** Install {!after_free} as the pool's reclamation hook
    ({!Shadow_pool.set_after_free_hook}), so it fires on {e every} free
    path — eager, degraded, and epoch retirement — without the caller
    having to remember to call it. *)

val trigger_pages : t -> int option
(** The effective trigger threshold ([None] for {!Manual}). *)

val set_trigger_pages : t -> int -> unit
(** Tighten the trigger (VA-pressure response).  The override is capped
    at the configured trigger — pressure can only make reclamation more
    eager, never lazier.  No-op for {!Manual}.  Raises
    [Invalid_argument] on a non-positive value. *)

val reclaimed_pages : t -> int
(** Cumulative shadow pages released by this policy. *)

val gc_runs : t -> int

val pinned_ranges : t -> int
(** Ranges the most recent GC run pinned (0 without a [gc]). *)

val strategy_label : strategy -> string
