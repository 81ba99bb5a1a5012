(** Constructors for the paper's own configurations (Table 1 columns)
    plus the pointer-tagging backend.  Related-work baselines (Electric
    Fence, Valgrind-style, capability checking) are {!Efence},
    {!Valgrind_sim} and {!Capability_check}.

    Each scheme record is made by {!Pool_scheme.build} ([recoverable]
    wraps one); DESIGN.md §6d lists the parts they are built from.

    A config record exists only where a caller varies the value: the
    [pa] dummy-syscall control, the [shadow_pool] VA-reuse ablation,
    the static elision policy and the epoch size.  Every other cost or
    size is a constant inside the scheme that uses it, documented on
    its constructor.  The typed scheme catalogue over these
    constructors is {!Scheme_spec}. *)

(** {1 Per-backend configuration} *)

type pa_config = {
  dummy_syscalls : bool;
      (** each alloc/free performs one no-op [mremap]/[mprotect]-shaped
          syscall — the paper's "PA + dummy syscalls" column, isolating
          syscall overhead from TLB effects.  Default [false]. *)
}

val default_pa_config : pa_config

type pool_config = {
  reuse_shadow_va : bool;
      (** place new shadow ranges on recycled addresses when available,
          so steady-state VA consumption is flat; [false] reproduces the
          stricter reading of the paper in which only canonical pages
          recycle (the ablation bench measures the difference).
          Default [true]. *)
}

val default_pool_config : pool_config

type static_config = {
  elide : string -> bool;
      (** per-malloc-site protection policy (see
          [Minic.Dangling.elide_policy]): [true] means every use of the
          site's points-to class was proved Safe, so the allocation
          skips its shadow alias.  No default — the policy is the
          scheme's reason to exist. *)
}

type epoch_config = {
  max_frees : int;   (** quarantined frees that force retirement; 64 *)
}

val default_epoch_config : epoch_config

(** {1 Schemes} *)

val native : Vmm.Machine.t -> Scheme.t
(** The unmodified program: plain {!Heap.Freelist_malloc}, raw loads and
    stores, no pools.  A dangling use silently reads whatever the reused
    memory holds — or segfaults undiagnosed if it strays off the map. *)

val pa : ?config:pa_config -> Vmm.Machine.t -> Scheme.t
(** Automatic Pool Allocation alone (the "PA" column): allocations are
    segregated into pools with virtual-page recycling at pool destroy,
    but no shadow pages and no protection — so no detection. *)

val shadow_basic : Vmm.Machine.t -> Scheme.t
(** The basic scheme of §3.2, applicable to unmodified binaries: shadow
    pages over the ordinary allocator, full detection, but no virtual
    address reuse (pool operations degrade to plain malloc/free). *)

val shadow_pool : ?config:pool_config -> Vmm.Machine.t -> Scheme.t
(** The full approach (§3.3): shadow pages + Automatic Pool Allocation.
    Top-level [malloc]/[free] go through a global pool; [pool_create]
    makes compiler-inferred pools whose destroy recycles all pages. *)

val tagged : Vmm.Machine.t -> Scheme.t
(** The pointer-tagging backend ({!Tagging.Tag_table}; xTag/LightDE in
    PAPERS.md) — the opposite point on the overhead-vs-coverage
    frontier from shadow paging.  Allocation embeds an 8-bit generation
    tag (one tag byte per 16-byte granule, the xTag operating point) in
    the pointer's unused high bits; every load and store pays a
    4-instruction software check of the tag against the
    per-granule generation table; free validates the tag and bumps the
    generation, so a stale pointer faults deterministically (raised as
    {!Shadow.Report.Tag_mismatch} with full alloc/free-site
    diagnostics) while the memory and its address are reused
    immediately.  No shadow aliasing, no [mremap]/[mprotect] traffic,
    no VA growth; the one coverage hole is a stale pointer whose
    generation distance is an exact multiple of [2^8], which
    passes the masked check — counted and bounded in the table's
    [wrap_masked_passes], so the differential harness can attribute
    every asymmetry against the shadow schemes.  Pool destroy retires
    every chunk still live in the pool (their granule generations bump,
    matching [pooldestroy] semantics).  Table stats are available via
    {!introspect}. *)

type epoch_stats = {
  epochs_retired : int;       (** retirements across all of the scheme's pools *)
  epoch_retired_frees : int;  (** frees fully completed by retirement *)
  epoch_pending_frees : int;  (** frees still quarantined right now *)
  coalesced_protects : int;   (** ranged mprotects issued at retirement *)
  epoch_split_retries : int;  (** per-object protects after a failed batch *)
  epoch_failed_protects : int;
      (** objects still unprotected after the split retry (re-quarantined) *)
  backstop_hits : int;  (** in-window UAFs caught by the software check *)
  slab_calls : int;     (** vectored slab-alias syscalls issued *)
  slab_hits : int;      (** allocations served from the slab cache *)
  slab_misses : int;    (** allocations that had to issue a slab call *)
}

(** What {!introspect} reveals about a scheme's internals.  Counts are
    not internals: the static, inferred and recoverable schemes write
    theirs ([elide.*], [inferred.*], [recover.*]) into the machine's
    metrics registry ({!Vmm.Stats.registry}), each documented on its
    constructor. *)
type info =
  | Opaque  (** nothing beyond the {!Scheme.t} record's own fields *)
  | Shadow_pool of {
      global : Shadow.Shadow_pool.t;
          (** the global pool (for the §3.4 long-lived-pool experiments) *)
      recycler : Apa.Page_recycler.t;
          (** the shared page free list (for §4.3 address-space
              measurements) *)
    }
      (** {!shadow_pool}, {!shadow_pool_spatial} and
          {!shadow_pool_static} *)
  | Shadow_pool_epoch of {
      global : Shadow.Shadow_pool.t;
      recycler : Apa.Page_recycler.t;
      epoch : unit -> epoch_stats;  (** aggregate batching counts so far *)
      drain : unit -> unit;
          (** force-retire every open epoch — a measurement boundary
              (bench sections) or orderly shutdown, not part of the
              steady-state protocol *)
    }
  | Tagged of {
      table : Tagging.Tag_table.t;
          (** the generation-tag table — checks, faults, wraps and
              modeled byte overhead via [Tagging.Tag_table.stats] *)
      recycler : Apa.Page_recycler.t;
          (** the canonical-page free list (tagging recycles VA
              immediately; this is where it goes) *)
    }

val introspect : Scheme.t -> info
(** The single entry point for scheme internals.  Reads the
    [introspection] field carried on the scheme record itself — no
    global side table, so it is safe when schemes are built concurrently
    on many domains — and returns [Opaque] for schemes that carry none
    (baselines, governed wrappers, {!shadow_pool_inferred}).  A
    {!recoverable} wrapper reports its base scheme's. *)

val shadow_pool_static : config:static_config -> Vmm.Machine.t -> Scheme.t
(** {!shadow_pool} driven by a static per-malloc-site protection policy
    (see [Minic.Dangling.elide_policy]): when [elide site] is true the
    allocation is served from the canonical pages with no shadow alias —
    no [mremap] at alloc, no [mprotect] at free — because the analysis
    proved every use of that site's class Safe.  All other sites,
    including any the policy does not recognise, keep the full scheme,
    so detection at May/Must sites is exactly as in {!shadow_pool}.
    Counts go to the machine's registry: [elide.allocs] and
    [elide.frees] (served without a shadow alias, freed without
    [mprotect]), [elide.protected_allocs] and [elide.protected_frees]
    (the full scheme's path).  {!introspect} reports [Shadow_pool]. *)

val shadow_pool_inferred : Vmm.Machine.t -> Scheme.t
(** {!shadow_pool} for statically inferred pool scopes ([Minic.Poolify]):
    each [pool_create] is one inferred pool and its [pool_destroy] —
    placed by the analysis at the tightest scope the class does not
    escape — returns the pool's whole VA footprint to the OS with real
    coalesced [munmap]s (no page recycler), so peak shadow VA tracks
    the inferred lifetimes instead of growing monotonically.  Detection
    is exactly {!shadow_pool}'s.  Counts go to the machine's registry:
    [inferred.pools_created] and [inferred.pools_destroyed] (the global
    pool is neither), [inferred.unmapped_pages] (shadow pages released
    by destroys) and the gauge [inferred.peak_shadow_pages] (high-water
    mark of the shadow pages live across the scheme's pools). *)

val shadow_pool_epoch : ?config:epoch_config -> Vmm.Machine.t -> Scheme.t
(** {!shadow_pool} with epoch-batched deferred protection
    ({!Shadow.Epoch}) and slab-preallocated shadow aliases
    ({!Shadow.Slab}): a free is validated and quarantined instead of
    mprotected, and when the per-pool epoch fills ([max_frees] frees,
    default 64, or 256 pages) retirement issues one coalesced mprotect
    per merged page run and only then recycles the canonical blocks.
    Shadow aliases are drawn 16 at a time from one vectored mremap.
    Inside the quarantine window detection is software: every access
    pays 2 instructions (only while an epoch is non-empty) to consult the quarantine table, and a hit raises the
    same {!Shadow.Report.Violation} the trap handler would.  After
    retirement detection is byte-for-byte {!shadow_pool}'s.  Batched
    protects go through {!Retry}; a run that still fails is split and
    retried per object, and objects that still fail stay quarantined.
    Batching counters are available via {!introspect}. *)

val recoverable :
  ?on_report:(Shadow.Report.t -> unit) -> Scheme.t -> Scheme.t
(** The paper's "log in production" deployment: wraps any detecting
    scheme so a {!Shadow.Report.Violation} is passed to [on_report] and
    the workload {e continues} instead of unwinding — what a production
    SEGV handler does when configured to log rather than abort.  A
    trapping access lifts the protection on the faulting page (the
    stale bytes on the shared physical page become readable again) and
    retries once; a wild access yields 0 on load and drops the store; a
    double or invalid free is skipped.  The base scheme's own violation
    trace event has already been emitted when [on_report] runs, so the
    wrapper never re-traces.  Counts go to the machine's registry:
    [recover.loads], [recover.stores] and [recover.frees] (each
    violation recovered, one per [on_report] call) and
    [recover.pages_unprotected] (pages whose protection was lifted).
    [introspection] is the base scheme's, so a wrapped
    {!shadow_pool_epoch} still introspects as [Shadow_pool_epoch]. *)

val shadow_pool_spatial : Vmm.Machine.t -> Scheme.t
(** The paper's future-work "comprehensive safety checking tool":
    {!shadow_pool} (all temporal errors, by hardware) plus a software
    bounds check per access against the object registry (spatial errors
    within the shadow page, which the MMU cannot see).  The bounds check
    costs 6 instructions per access, matching the few-percent overhead
    of the authors' companion spatial checker. *)
