(** A bump-pointer allocator with an 8-byte size prefix and no-op frees.

    Exists as a second, structurally different allocator behind
    {!Allocator_intf.t}: the paper claims the shadow-page scheme requires
    {e no change to the allocation algorithm}, and our tests run the
    wrapper over both this and {!Freelist_malloc} to demonstrate it. *)

type t

val create : ?region_pages:int -> Vmm.Machine.t -> t
val alloc : t -> int -> Vmm.Addr.t
val dealloc : t -> Vmm.Addr.t -> unit
val size_of : t -> Vmm.Addr.t -> int
val live_blocks : t -> int
val as_allocator : t -> Allocator_intf.t
