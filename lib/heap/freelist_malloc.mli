(** A segregated-fit malloc/free in the dlmalloc tradition, running
    entirely on simulated memory.

    Small requests are rounded up to a size class and served from
    per-class free lists carved out of mmap'd arenas; requests larger
    than the biggest class get their own page-granular mmap region.
    Every block carries a 16-byte header (size word + status/magic word)
    just before the payload, and free blocks thread their free-list link
    through the first payload word — all of it read and written through
    the {!Vmm.Mmu} so that allocator work shows up in the cost model like
    the user-level library code it is. *)

type t

exception Heap_corruption of string
(** Raised when a block header fails validation — e.g. a double free
    reaching the allocator, or a trampled header.  (Under the shadow-page
    scheme these conditions trap at the MMU before the allocator can see
    them.) *)

val create :
  ?arena_pages:int -> ?page_source:(int -> Vmm.Addr.t) -> Vmm.Machine.t -> t
(** [arena_pages] is the size of each mmap'd small-object arena (default
    64 pages).  [page_source] supplies mapped read-write pages when the
    allocator needs more memory (default: [Syscalls.mmap], raising
    [Fault_plan.Syscall_failure] on an error); the pool
    run-time passes a source that draws on recycled virtual ranges. *)

val alloc : t -> int -> Vmm.Addr.t
val dealloc : t -> Vmm.Addr.t -> unit

val size_of : t -> Vmm.Addr.t -> int
(** Usable size of a live block, read from its header.  Raises
    {!Heap_corruption} on a freed block or a trampled header, and
    [Vmm.Fault.Trap] if the header page is protected. *)

val is_live : t -> Vmm.Addr.t -> bool
(** Whether the header marks the block allocated (no fault risk: uses a
    kernel-mode read). *)

val live_blocks : t -> int
val live_bytes : t -> int

val check : t -> (unit, string) result
(** Heap-walk validation: every arena must parse into a sequence of
    well-formed blocks with valid magics and no overlap.  Used by tests
    and by {!Heap_check}. *)

val as_allocator : t -> Allocator_intf.t
