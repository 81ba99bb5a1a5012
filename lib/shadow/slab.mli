(** Slab-preallocated shadow aliases.

    The paper's per-allocation [mremap] is the alloc-side syscall tax.
    This cache pays it once per {e slab}: a single vectored
    {!Vmm.Syscalls.mremap_alias_slab} call creates [copies] contiguous
    aliases of a canonical page run, one is returned immediately and the
    rest are kept for later allocations on the same run.  Because a
    freelist allocator recycles canonical pages heavily, churn-shaped
    workloads hit the cache on almost every malloc.

    The cache key is the canonical run [(page base, pages)].  Frames
    behind a canonical page only change at pool destroy (recycled VA is
    re-backed with [mmap_fixed]), so a slab cache must be {!flush}ed
    when its pool dies and never outlive it. *)

type t

val create : ?copies:int -> Vmm.Machine.t -> t
(** [copies] (default 16) aliases are created per slab call. *)

val take :
  t ->
  src:Vmm.Addr.t ->
  pages:int ->
  (Vmm.Addr.t, Vmm.Fault_plan.error) result
(** An unused shadow alias of [src .. src+pages) — from the cache when
    one is left (no syscall), otherwise via one vectored slab call that
    also restocks the cache.  [src] must be a mapped page base. *)

val flush :
  t ->
  unmap:(addr:Vmm.Addr.t -> pages:int -> (unit, Vmm.Fault_plan.error) result) ->
  int
(** Unmap every cached (never handed out) alias with [unmap] (the owning
    {!Shadow_pool}'s release call), coalescing contiguous spares into
    single calls; returns the pages released.  A run whose [unmap] fails
    stays mapped but leaves the cache, so it is never handed out.
    Mandatory at pool destroy: recycled canonical VA gets fresh physical
    backing, which would silently invalidate cached aliases. *)

val cached_aliases : t -> int
(** Spare aliases currently cached. *)

val slab_calls : t -> int
(** Vectored slab syscalls issued. *)

val hits : t -> int
(** Allocations served from the cache with zero syscalls. *)

val misses : t -> int
(** Allocations that had to issue a slab call. *)
