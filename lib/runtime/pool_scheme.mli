(** The plumbing every pool-backed scheme shares: the guarded-access
    helpers, the one builder of the {!Scheme.t} record, and the
    tag-checked access and tagged pool that the tagging backend and the
    governed backend ladder both sit on.

    A pool-backed scheme is a backing pool plus a wrapper around its
    alloc/free/destroy: {!build} takes the two as plug-ins (the shape of
    an ops record, like the kernel's [page_ext_operations]), routes
    top-level [malloc]/[free] through a global pool, and makes every
    [pool_create] a fresh wrapped pool. *)

val guarded_load :
  Vmm.Machine.t -> Shadow.Object_registry.t -> Vmm.Addr.t -> width:int -> int
(** An MMU load whose trap is diagnosed against the registry and raised
    (and traced) as {!Shadow.Report.Violation}; an address the registry
    does not know is a [Wild_access]. *)

val guarded_store :
  Vmm.Machine.t ->
  Shadow.Object_registry.t ->
  Vmm.Addr.t ->
  width:int ->
  int ->
  unit

val build :
  name:string ->
  Vmm.Machine.t ->
  pool:(int option -> 'p) ->
  wrap:('p -> Scheme.pool_handle) ->
  load:(Vmm.Addr.t -> width:int -> int) ->
  store:(Vmm.Addr.t -> width:int -> int -> unit) ->
  extra_memory_bytes:(unit -> int) ->
  guarantees_detection:bool ->
  introspection:('p -> Scheme.introspection) ->
  Scheme.t
(** [pool elem_size] makes a backing pool and [wrap] its handle.  The
    global pool is made first, and [introspection] sees it. *)

val tag_checked :
  Vmm.Machine.t ->
  Tagging.Tag_table.t ->
  Shadow.Object_registry.t ->
  (Vmm.Addr.t -> width:int -> int)
  * (Vmm.Addr.t -> width:int -> int -> unit)
(** Load and store that check a tagged pointer against the table (a
    stale tag raises {!Shadow.Report.Tag_mismatch}), then access the
    untagged address through {!guarded_load}/{!guarded_store} on the
    registry.  An address the table does not own goes straight to the
    guarded access; with an empty registry every trap is wild. *)

val tagged_pool :
  Vmm.Machine.t ->
  Tagging.Tag_table.t ->
  alloc_raw:(int -> Vmm.Addr.t) ->
  dealloc_raw:(Vmm.Addr.t -> unit) ->
  destroy:(unit -> unit) ->
  Scheme.pool_handle * (Vmm.Addr.t -> bool)
(** One backing pool's chunks guarded by the tag table, and whether an
    address is a live chunk of it.  [alloc_raw] and [dealloc_raw] are
    the pool's untagged, op-counted block operations.  Alloc returns a
    tagged pointer; free validates the tag and bumps the generation (a
    stale or foreign pointer raises, and traces, the table's violation);
    destroy bumps every chunk still live ([pooldestroy] semantics), then
    runs [destroy]. *)
