(** Epoch-batched deferred protection: a bounded free quarantine whose
    retirement coalesces page protection into ranged syscalls.

    The paper's per-free [mprotect] is the free-side syscall tax.  An
    epoch defers it: {!enqueue} records a validated free without
    touching page permissions, and {!retire} merges every pending shadow
    range ({!Vmm.Syscalls.coalesce_ranges}) and issues {e one} protect
    per merged run.  Canonical blocks are also held back until
    retirement (a true quarantine), so physical reuse cannot outrun
    protection.

    {b Quarantine-window soundness.}  Between {!enqueue} and {!retire}
    the object's pages are still mapped read-write, so the MMU will not
    trap a use.  The side table consulted via {!quarantined_obj} closes
    the window: the owning scheme checks it on every load/store and
    raises the violation in software, with full diagnostics from the
    registry record.  After retirement the MMU path is byte-for-byte the
    non-epoch one.

    {b Failure handling.}  A merged run whose batched protect fails is
    split back into its member objects and each is protected
    individually; objects that still fail are re-enqueued — quarantined
    and unreleased — for the next retirement.  Protection is never
    silently dropped. *)

type t

val create :
  ?max_frees:int ->
  protect:
    (addr:Vmm.Addr.t -> pages:int -> (unit, Vmm.Fault_plan.error) result) ->
  unit ->
  t
(** An empty epoch.  It retires when {!should_retire} — at least
    [max_frees] (default 64) pending frees or 256 pending pages.
    [protect] issues the ranged protection syscall; the runtime layer
    passes one wrapped in [Runtime.Retry] so transient faults are
    absorbed before the split fallback engages. *)

val enqueue : t -> Object_registry.obj -> release:(unit -> unit) -> unit
(** Quarantine a validated free.  [release] finishes the free (canonical
    dealloc + pool bookkeeping) and runs exactly once, after the
    object's shadow range is successfully protected. *)

val should_retire : t -> bool

val retire : t -> unit
(** Protect every pending range with coalesced calls (split-and-retry
    per object on failure) and release the retired entries.  No-op on an
    empty epoch. *)

val quarantined_obj : t -> Vmm.Addr.t -> Object_registry.obj option
(** The quarantined object whose shadow pages contain [addr], if any —
    the software backstop the owning scheme consults on every access
    while an epoch is open. *)

val pending_frees : t -> int
val pending_pages : t -> int
val retirements : t -> int

val retired_frees : t -> int
(** Frees fully completed (protected + released) by retirement. *)

val protect_calls : t -> int
(** Coalesced ranged protects issued (the batching win's denominator is
    {!retired_frees}). *)

val split_retries : t -> int
(** Per-object fallback protects issued after a failed batched call. *)

val failed_protects : t -> int
(** Objects whose protection failed even split; they remain quarantined
    and pending. *)
