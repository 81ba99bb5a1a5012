(** The simulated operating-system interface: the four system calls the
    paper's run-time needs ([mmap], [mremap]-as-aliasing, [mprotect],
    [munmap]) plus a dummy no-op call used to isolate syscall overhead
    (the paper's "PA + dummy syscalls" column).

    Every call counts one syscall of the appropriate kind in
    {!Stats}; the {!Cost_model} charges each a fixed cost.  A malformed
    request (unaligned address, non-positive count, an unmapped page
    where mapped ones are required) raises [Invalid_argument] before the
    call counts, traces or maps anything, so a rejection leaves the
    machine unchanged.

    This is the raw layer.  Code outside [lib/vmm] issues its mapping
    calls through {!Syscalls}, which adds fault injection and typed
    errors on top; [scripts/lint_src.sh] enforces that. *)

val mmap : Machine.t -> pages:int -> Addr.t
(** Map [pages] fresh zeroed pages read-write at a fresh virtual address;
    returns the base.  Models [mmap(NULL, len, PROT_READ|PROT_WRITE,
    MAP_PRIVATE|MAP_ANONYMOUS)]. *)

val mmap_fixed : Machine.t -> addr:Addr.t -> pages:int -> unit
(** Map [pages] fresh zeroed pages read-write at the given page-aligned
    address, atomically replacing any existing mappings there (Linux
    [MAP_FIXED] semantics).  Old frames lose a reference.  This is how
    recycled virtual ranges from a destroyed pool are reused as canonical
    pages with fresh backing. *)

val mremap_alias : Machine.t -> src:Addr.t -> pages:int -> Addr.t
(** The paper's per-allocation call: create a {e second} virtual mapping
    (at a fresh address) of the physical frames currently backing
    [src .. src+pages*page_size), read-write.  Models Linux
    [mremap(old, 0, len)] which leaves the old mapping intact.  [src]
    must be page-aligned and mapped. *)

val mremap_alias_slab :
  Machine.t -> src:Addr.t -> pages:int -> copies:int -> Addr.t
(** Vectored {!mremap_alias}: one syscall creates [copies] contiguous
    aliases of the canonical run [src .. src+pages), laid out
    back-to-back at a fresh base (copy [i] starts at
    [base + i*pages*page_size]).  Models the slab-granularity aliasing
    call the paper proposes as an OS enhancement; amortizes alias cost
    to ~1 syscall per slab. *)

val mremap_alias_at : Machine.t -> src:Addr.t -> dst:Addr.t -> pages:int -> unit
(** Like {!mremap_alias} but the new mapping is placed at [dst]
    (page-aligned; any existing mappings there are replaced) — used when
    shadow pages are drawn from a recycled virtual range. *)

val mprotect : Machine.t -> addr:Addr.t -> pages:int -> Perm.t -> unit
(** Change protection of [pages] pages starting at page-aligned [addr];
    performs {e one} batched TLB shootdown for the whole range (counted
    in {!Stats} and traced as a single [Tlb_flush] event).  The paper's
    per-free call.  Fails atomically if any page is unmapped. *)

val munmap : Machine.t -> addr:Addr.t -> pages:int -> unit
(** Remove mappings; frames are freed when their last mapping goes.
    Performs one batched TLB shootdown for the range; fails atomically
    if any page is unmapped. *)

val dummy_syscall : Machine.t -> unit
(** No-op syscall: costs a kernel round trip and does nothing. *)

val page_perm : Machine.t -> Addr.t -> Perm.t option
(** Observe the protection of the page containing an address (no cost;
    used by tests and diagnostics). *)
