(** The Automatic-Pool-Allocation run-time: [poolinit] / [poolalloc] /
    [poolfree] / [pooldestroy].

    Each pool is a distinct sub-heap (internally a {!Heap.Freelist_malloc}
    drawing pages from the pool's page source), so that when the compiler
    has proved a pool unreachable, {!destroy} can hand {e all} of its
    canonical virtual pages back to the shared {!Page_recycler} for
    reuse.  (Shadow ranges for the pool's objects are owned and recycled
    by {!Shadow.Shadow_pool}, which layers on top.)

    A pool with no recycler (or one created with [reclaim = Unmap]) models
    the paper's alternatives: fresh mmap for everything, or explicit
    munmap at destroy. *)

type t

type reclaim =
  | Recycle of Page_recycler.t
      (** push all pages to the shared free list at destroy (paper §3.3) *)
  | Unmap  (** munmap everything at destroy (the paper's "simple solution") *)
  | Leak   (** do nothing at destroy — the no-reuse baseline *)

val create :
  ?arena_pages:int -> ?elem_size:int -> reclaim:reclaim -> Vmm.Machine.t -> t
(** [poolinit].  [elem_size] is the type-driven hint APA passes (recorded
    for diagnostics; allocation sizes may still vary).  [arena_pages]
    sizes each canonical arena (default 16 — pools are smaller than the
    global heap). *)

val alloc : t -> int -> Vmm.Addr.t
(** [poolalloc].  Raises [Invalid_argument] on a destroyed pool. *)

val dealloc : t -> Vmm.Addr.t -> unit
(** [poolfree]: returns the block to the pool's internal free lists (and
    thus its physical memory to reuse) but never returns pages to the
    system before {!destroy}. *)

val destroy : t -> unit
(** [pooldestroy]: reclaim every owned virtual range per the pool's
    [reclaim] policy and mark the pool unusable. *)

val is_destroyed : t -> bool

val live_blocks : t -> int
val owned_pages : t -> int
(** Canonical virtual pages currently owned. *)

val elem_size : t -> int option
val as_allocator : t -> Heap.Allocator_intf.t
