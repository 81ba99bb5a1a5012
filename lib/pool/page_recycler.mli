(** The shared free list of virtual pages (paper §3.3).

    At [pooldestroy], every canonical and shadow virtual range owned by
    the pool is pushed here instead of being [munmap]ed; future pools
    draw canonical pages from this list before asking the kernel for
    fresh address space.  This is what bounds virtual-address-space
    growth for pool-bounded data.

    The recycler stores {e address ranges} only; when a range is taken
    for reuse, the pool run-time re-maps it with fresh physical backing
    (a single [mmap_fixed] per range), which simultaneously clears any
    stale [PROT_NONE] protections and severs any stale physical aliases
    left over from the range's previous life. *)

type t

val create : unit -> t

val put : t -> base:Vmm.Addr.t -> pages:int -> unit
(** Add a page-aligned range to the free list. *)

val take : t -> pages:int -> Vmm.Addr.t option
(** Remove and return a range of exactly [pages] pages, splitting a
    larger stored range if needed; [None] if nothing large enough is
    stored. *)

val untake : t -> base:Vmm.Addr.t -> pages:int -> unit
(** Give back a range that {!take} just returned and that could not be
    reused (its re-backing failed): it returns to the free list, and
    neither cumulative counter keeps the round trip. *)

val available_pages : t -> int
(** Pages currently on the free list. *)

val total_recycled_pages : t -> int
(** Cumulative pages ever pushed — the address space that pool
    allocation saved from being wasted. *)

val total_reused_pages : t -> int
(** Cumulative pages ever taken back out for reuse. *)
