(** Shadow-page detection layered over a pool (§3.3): the full scheme.

    Allocation and deallocation work exactly as in {!Shadow_heap}, with
    the pool as the underlying allocator.  The new capability is
    [pooldestroy]: because Automatic Pool Allocation guarantees no live
    pointers into the pool survive it, {!destroy} returns {e every}
    virtual page the pool ever consumed — canonical and shadow alike —
    to the shared {!Apa.Page_recycler}, bounding virtual-address-space
    growth for pool-bounded data.

    With [reuse_shadow_va] (default true) new shadow ranges are also
    placed on recycled addresses when available, so steady-state virtual
    address consumption is flat.  Setting it false reproduces the
    stricter reading of the paper in which only canonical pages are drawn
    from the free list; the ablation bench shows the difference. *)

type t

val create :
  ?elem_size:int ->
  ?reuse_shadow_va:bool ->
  ?recycler:Apa.Page_recycler.t ->
  ?slab:Slab.t ->
  ?unmap:(addr:Vmm.Addr.t -> pages:int -> (unit, Vmm.Fault_plan.error) result) ->
  registry:Object_registry.t ->
  Vmm.Machine.t ->
  t
(** [poolinit].  The underlying pool carves small objects from 16-page
    arenas.  Without a [recycler], destroy unmaps everything instead
    (the paper's "simple solution").  With a [slab], shadow aliases come
    from {!Slab.take} (vectored pre-aliasing, overriding recycled-VA
    placement) and {!destroy} flushes the cache — the slab must be
    private to this pool.  [unmap] issues the ranged release syscall on
    the reclaim path (default: {!Vmm.Syscalls.munmap} on this machine);
    the runtime layer passes one wrapped in [Runtime.Retry], mirroring
    how {!Epoch} takes its [protect]. *)

val alloc : t -> ?site:string -> int -> Vmm.Addr.t
val free : t -> ?site:string -> Vmm.Addr.t -> unit

val try_alloc :
  t -> ?site:string -> int -> (Vmm.Addr.t, Vmm.Fault_plan.error) result
(** {!alloc} through the typed syscall boundary: [Error] leaves the pool
    unchanged so the caller can retry or fall back. *)

val try_free :
  t -> ?site:string -> Vmm.Addr.t -> (unit, Vmm.Fault_plan.error) result
(** {!free} through the typed syscall boundary: on [Error] the object is
    still live.  Misuse ([Double_free] etc.) still raises
    {!Report.Violation}. *)

val free_unprotected :
  t -> ?site:string -> Vmm.Addr.t -> Object_registry.obj
(** Degraded-mode free that skips page protection (see
    {!Shadow_heap.free_unprotected}); the range is still marked freed so
    {!reclaim_freed_shadow} can recycle it. *)

val free_deferred : t -> ?site:string -> Vmm.Addr.t -> Object_registry.obj
(** Epoch-mode free (see {!Shadow_heap.free_deferred}): validated and
    marked freed, protection and canonical reuse deferred.  The shadow
    range stays out of the {!reclaim_freed_shadow} set until
    {!retire_object} — a quarantined range must not be recycled from
    under its epoch. *)

val retire_object : t -> Object_registry.obj -> unit
(** Finish a {!free_deferred}: canonical block back to the pool and the
    range into the reclaimable freed set.  The epoch calls this (via its
    release callback) only after the range is protected. *)

val alloc_raw : t -> int -> Vmm.Addr.t
(** Pass-through allocation straight from the underlying pool: no shadow
    alias, no registry record, no detection for this object. *)

val dealloc_raw : t -> Vmm.Addr.t -> unit
(** Free a block obtained from {!alloc_raw}. *)

val alloc_elided : t -> int -> Vmm.Addr.t
(** Allocation for a site the static analysis proved Safe: canonical
    page only, no shadow alias, no [mremap] — and therefore no
    detection for this object.  Sound only when every use of the
    site's points-to class has a Safe verdict (see [Minic.Dangling]).
    The block is tracked so {!free_elided} recognises it. *)

val free_elided : t -> Vmm.Addr.t -> bool
(** [free_elided t addr] frees [addr] if it was obtained from
    {!alloc_elided} and returns [true]; returns [false] (doing
    nothing) otherwise, so the caller falls through to the protected
    {!free} path — a double free of an elided block thus still raises
    through the object registry. *)

val destroy : t -> unit
(** [pooldestroy]: recycle (or unmap) all canonical and shadow ranges and
    drop their diagnostic records. *)

val reclaim_freed_shadow : t -> int
(** §3.4 escape hatch for long-lived pools: release the shadow ranges of
    already-freed objects for reuse {e before} pool destruction, returning
    the number of pages released.  After this, a dangling use of those
    objects is no longer guaranteed to be detected — this is precisely
    the small-probability trade the paper accepts when address space must
    be reclaimed from immortal pools.  Equivalent to
    [reclaim_ranges t (freed_ranges t)]. *)

val freed_ranges : t -> (Vmm.Addr.t * int) list
(** The freed-but-still-protected shadow ranges, sorted by base — the
    candidate set a conservative {!Gc} marks against. *)

val reclaim_ranges : t -> (Vmm.Addr.t * int) list -> int
(** Release a chosen subset of {!freed_ranges} (a {!Gc} passes only the
    ranges its mark phase proved unreferenced), returning pages
    released.  The release syscalls are batched: member ranges are fused
    via {!Vmm.Syscalls.coalesce_ranges} and each merged run costs one
    [unmap] (or one recycler insertion).  A merged run whose unmap fails
    is kept whole — still protected, reclaimable later — never
    half-released.  Ranges not currently in the freed set are skipped,
    and a range listed more than once is released and counted once. *)

val is_freed : t -> Vmm.Addr.t -> bool
(** [is_freed t base]: a range starting at [base] is in the freed set —
    after {!reclaim_ranges}, exactly the ranges it did not release.
    O(1). *)

val set_after_free_hook : t -> (unit -> unit) -> unit
(** Install the pool's reclamation hook (typically
    [Reuse_policy.after_free]).  It runs after every completed free —
    eager {!free}/{!try_free}, degraded {!free_unprotected}, {e and}
    epoch {!retire_object} — so a long-lived pool's reuse policy fires
    no matter which free path the scheme uses.  Re-entry is suppressed:
    a reclamation performed by the hook cannot recursively trigger it. *)

val machine : t -> Vmm.Machine.t

val registry : t -> Object_registry.t
(** The diagnostic registry this pool maintains — the live-object
    enumeration a conservative {!Gc} scans heap words through. *)

val is_destroyed : t -> bool
val shadow_pages_live : t -> int
(** Shadow pages currently held (live + freed-retained).  O(1): a
    running count, not a traversal of the pool's ranges. *)

val freed_shadow_pages : t -> int
(** Shadow pages held only to keep freed objects trapping.  O(1), like
    {!shadow_pages_live}, so a reuse policy may ask on every free. *)

val ranges_visited : t -> int
(** Diagnostic, like [Vmm.Page_table.walk_count]: shadow-range entries
    read so far by {!freed_ranges}, {!destroy}, {!reclaim_ranges}'s
    eligibility checks and {!is_freed}.  The per-alloc and per-free
    bookkeeping visits none, so a free path that stays O(1) leaves it
    unchanged. *)
