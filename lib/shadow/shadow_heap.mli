(** The paper's core mechanism (§3.2): one {e shadow} virtual page range
    per allocation, aliased onto the canonical physical pages of an
    unmodified underlying allocator.

    Allocation: the request is grown by one word; the underlying
    allocator places the object at canonical address [a]; a fresh virtual
    range aliasing [a]'s page(s) is created with one [mremap]; the
    canonical address is recorded in the extra word just before the
    returned pointer; the caller receives the {e shadow} address (same
    page offset, different page).

    Deallocation: the header word is read back (this read itself traps on
    a double free), the shadow range is [mprotect]ed to [PROT_NONE], and
    the canonical address is passed to the underlying [free] — so the
    physical memory is reused exactly as in the original program while
    every stale pointer keeps pointing at a protected page forever.

    The underlying allocator never learns any of this happened. *)

type t

val create :
  ?shadow_placer:(int -> Vmm.Addr.t option) ->
  ?shadow_unplace:(base:Vmm.Addr.t -> pages:int -> unit) ->
  ?on_shadow_range:(base:Vmm.Addr.t -> pages:int -> unit) ->
  ?shadow_alias:
    (src:Vmm.Addr.t -> pages:int -> (Vmm.Addr.t, Vmm.Fault_plan.error) result) ->
  registry:Object_registry.t ->
  allocator:Heap.Allocator_intf.t ->
  Vmm.Machine.t ->
  t
(** [shadow_placer pages] may supply a recycled virtual address at which
    to place the next shadow range ([None] = take fresh address space);
    [shadow_unplace] returns such a range to its donor when the aliasing
    syscall fails after placement (so an injected fault does not leak
    recycled VA); [on_shadow_range] is told about every shadow range
    created, so a pool layer can track it for destroy-time recycling.
    [shadow_alias], when given, replaces the whole aliasing strategy
    (placer included): it must return the base of a fresh read-write
    alias of [src .. src+pages) — this is how {!Slab} pre-aliasing
    plugs in. *)

val trace_malloc : Vmm.Machine.t -> string -> int -> Vmm.Addr.t -> unit
val trace_free : Vmm.Machine.t -> string -> Vmm.Addr.t -> unit
(** A malloc or free event, [site] first, on the machine's trace sink:
    the one emitter every scheme uses.  Nothing is allocated when the
    sink is disabled. *)

val trace_violation : Vmm.Machine.t -> Report.t -> unit
(** Emitted past sampling: losing a violation would change the story a
    trace tells. *)

val malloc : t -> ?site:string -> int -> Vmm.Addr.t
(** Allocate [size] usable bytes; returns the shadow address.  [site] is
    a free-form call-site label kept for diagnostics.  Raises
    {!Vmm.Fault_plan.Syscall_failure} if the aliasing syscall fails
    (only possible under an armed fault plan) — graceful callers use
    {!try_malloc} instead. *)

val try_malloc :
  t -> ?site:string -> int -> (Vmm.Addr.t, Vmm.Fault_plan.error) result
(** One whole-allocation attempt through the {!Vmm.Syscalls} boundary.
    On [Error] nothing is leaked — the canonical block is returned to
    the allocator and any recycled VA to its donor — so the call can
    simply be repeated. *)

val free : t -> ?site:string -> Vmm.Addr.t -> unit
(** Free a shadow address.  Raises {!Report.Violation} with
    [Double_free] / [Invalid_free] diagnostics on misuse, and
    {!Vmm.Fault_plan.Syscall_failure} if the protecting [mprotect]
    fails under an armed fault plan. *)

val try_free :
  t -> ?site:string -> Vmm.Addr.t -> (unit, Vmm.Fault_plan.error) result
(** Like {!free} but the protecting [mprotect] goes through the typed
    boundary: on [Error] the object is {e still live} (nothing freed),
    so the caller can retry or fall back to {!free_unprotected}.
    Violations still raise. *)

val free_deferred : t -> ?site:string -> Vmm.Addr.t -> Object_registry.obj
(** Epoch-mode free: full free-argument validation (double/invalid
    frees raise {!Report.Violation} exactly as {!free}) and the object
    is marked freed, but {e neither} the protecting [mprotect] {e nor}
    the canonical dealloc happens — both are the caller's epoch's
    responsibility ({!Epoch.enqueue} with a release callback built on
    {!release_canonical}).  Until retirement the object's pages remain
    accessible; the epoch's quarantine table is the detection backstop
    for that window. *)

val release_canonical : t -> Object_registry.obj -> unit
(** Second half of {!free_deferred}: return the canonical block to the
    underlying allocator.  Call exactly once, only after the object's
    shadow range is protected (or the pool is being torn down). *)

val free_unprotected : t -> ?site:string -> Vmm.Addr.t -> Object_registry.obj
(** Degraded-mode free: releases the object (registry + allocator)
    {e without} protecting its shadow pages — a later dangling use of
    this object will read reused memory silently instead of trapping.
    Callers record the returned object so the lost guarantee stays
    attributable.  Double/invalid frees still raise {!Report.Violation}
    (the registry state check stands in for the missing page trap). *)

val size_of : t -> Vmm.Addr.t -> int
(** Usable size of a live object, by shadow address. *)
