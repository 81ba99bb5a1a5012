(** The memory management unit: address translation and the hardware
    permission check performed on {e every} access.

    This is the mechanism the paper leans on: instead of inserting
    software checks on loads and stores, the scheme arranges page
    protections so that the MMU's existing per-access check catches
    dangling uses for free.  A failed check raises {!Fault.Trap}, the
    simulator's SIGSEGV.

    Translation is TLB-first: a hit answers the access from the cached
    packed entry (frame + protection bits) without consulting the page
    table, mirroring the hardware economics the paper relies on — checks
    cost nothing on the hot path.  A within-page access of any width is
    one TLB probe, one frame lookup and one word-wide memory operation;
    only page-crossing accesses fall back to byte-at-a-time. *)

val load : Machine.t -> Addr.t -> width:int -> int
(** [load m a ~width] reads a [width]-byte little-endian integer
    ([width] in 1/2/4/8).  Counts one load, probes the TLB per page
    touched, and raises {!Fault.Trap} on an unmapped page or a
    protection violation. *)

val store : Machine.t -> Addr.t -> width:int -> int -> unit
(** Write counterpart of {!load}. *)

val load_exempt : Machine.t -> Addr.t -> width:int -> int
val store_exempt : Machine.t -> Addr.t -> width:int -> int -> unit
val kernel_frame : Machine.t -> Addr.t -> Frame_table.frame
(** Kernel-mode access: ignores permissions (but not mappings) and does
    not count user loads/stores or TLB traffic.  Used by the simulated
    kernel and by debuggers; never by workload code.  {!kernel_frame} is
    the page-table walk behind both accessors: the frame mapped at the
    address's page, or a {!Fault.Unmapped} trap. *)

val probe : Machine.t -> Addr.t -> access:Perm.access -> (unit, Fault.t) result
(** Check whether an access would succeed, without performing it or
    counting events.  Used by tests and by fault-report rendering. *)
