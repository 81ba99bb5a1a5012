(** The typed, injectable syscall boundary: the one way code outside
    [lib/vmm] issues a mapping call.

    Same operations as {!Kernel}, but every call (1) consults the
    machine's {!Fault_plan} and may fail without touching the machine,
    and (2) returns a typed [result] instead of raising — including the
    raw layer's [Invalid_argument] rejections, which surface here as
    [Fatal Einval].  Failed attempts still cost a kernel round trip
    (the per-kind syscall counter) and are counted in
    [Stats.syscalls_failed] and traced as [Syscall_fault] events.

    Callers with a degradation path handle the error (the governed
    schemes, via [Runtime.Retry]; pool re-backing; recovery); the others
    unwrap with {!ok_or_raise}.  {!Kernel} remains the raw layer under
    this module, used directly only inside [lib/vmm] and by tests and
    host-clock measurements of the bare calls; [scripts/lint_src.sh]
    rejects a raw mapping call anywhere else in lib, bin, bench and
    examples. *)

type 'a outcome = ('a, Fault_plan.error) result

val mmap : Machine.t -> pages:int -> Addr.t outcome

val mmap_fixed : Machine.t -> addr:Addr.t -> pages:int -> unit outcome
(** Injectable {!Kernel.mmap_fixed} (fault class [Mmap_fixed], counted
    as an [mmap]). *)

val mremap_alias : Machine.t -> src:Addr.t -> pages:int -> Addr.t outcome

val mremap_alias_slab :
  Machine.t -> src:Addr.t -> pages:int -> copies:int -> Addr.t outcome
(** Injectable {!Kernel.mremap_alias_slab} (fault class [Mremap]). *)

val mremap_alias_at :
  Machine.t -> src:Addr.t -> dst:Addr.t -> pages:int -> unit outcome

val mprotect : Machine.t -> addr:Addr.t -> pages:int -> Perm.t -> unit outcome
val munmap : Machine.t -> addr:Addr.t -> pages:int -> unit outcome

val ok_or_raise : name:string -> 'a outcome -> 'a
(** Unwrap, raising {!Fault_plan.Syscall_failure} on error — for
    callers with no graceful-degradation path. *)

val coalesce_ranges : (Addr.t * int) list -> (Addr.t * int) list
(** Merge page-aligned [(base, pages)] ranges: sort by base and fuse
    adjacent/overlapping runs.  Pure planning step for epoch-batched
    retirement — empty and non-positive ranges are dropped, the result
    is sorted and minimal.  No syscall is issued. *)
