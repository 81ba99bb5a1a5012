(** Shadow-page schemes wrapped in the {!Governor}'s degradation ladder.

    Allocation: the governor decides whether this object gets a shadow
    alias ({!Governor.should_protect}); protected attempts go through
    {!Retry.attempt} (its default policy) over the typed [try_*]
    operations, and a final failure falls back to a {e raw} allocation
    from the same backing allocator — the program keeps running, the
    object just is not guarded.  Free: raw blocks go straight back to
    the backing allocator; protected objects retry the protecting
    [mprotect] and fall back to {!Shadow.Shadow_pool.free_unprotected}
    when it cannot be made to stick.

    Every object that ever lived unguarded is recorded, so a detection
    miss observed later is either attributable (its address is in the
    record, or it was allocated while the ladder was degraded) or a
    genuine bug in the scheme.  The resilience harness asserts exactly
    this invariant. *)

type t

val shadow_basic : Vmm.Machine.t -> t
(** Governed {!Schemes.shadow_basic}: freelist allocator + shadow heap,
    under {!Governor.default_config}. *)

val shadow_pool : Vmm.Machine.t -> t
(** Governed {!Schemes.shadow_pool}: the full pool-based scheme, with
    governed sub-pools sharing one governor ({!Governor.default_config}),
    registry and recycler. *)

val backend_ladder : ?config:Governor.config -> Vmm.Machine.t -> t
(** The governor stepping {e backends}, not sample rates: shadow paging
    in [Full], the pointer-tagging backend ({!Tagging.Tag_table}) on
    the [Tagged] rung (the same 8-bit tags as {!Schemes.tagged}), raw
    passthrough at the bottom.  [config] defaults to
    {!Governor.default_config} with {!Governor.backend_ladder} as the
    rung order.  A shadow allocation whose syscalls fail after retries
    falls back to a {e tagged} allocation — still guarded, unlike the
    classic ladder's raw fallback — so [unprotected_allocs] counts only
    sampled-out and [Passthrough]/raw blocks.  A raw allocation that
    reuses granules of retired tagged chunks evicts their tag-table
    entries (a legitimate access must never trip a stale tag); dangling
    tagged pointers into such a range stop faulting, which is precisely
    the attributed coverage loss of the raw rung. *)

val scheme : t -> Scheme.t
(** The runnable scheme record (note [guarantees_detection] is false
    for the pool variant: the guarantee is conditional on the ladder
    staying in [Full]). *)

val governor : t -> Governor.t

val tag_table : t -> Tagging.Tag_table.t option
(** The tag table of a {!backend_ladder} (its checks/faults/wrap stats
    and modeled byte overhead); [None] for the classic ladders. *)

val was_unprotected : t -> Vmm.Addr.t -> bool
(** Whether this address (block base or any interior address of a
    registered object) ever lived without page protection — the
    attribution check for a detection miss. *)

val unprotected_allocs : t -> int
(** Allocations that never got a shadow alias (sampled-out, passthrough,
    or fallback after syscall failure). *)

val unprotected_frees : t -> int
(** Frees that could not protect their shadow range. *)
