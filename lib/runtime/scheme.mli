(** A protection scheme: the uniform interface workloads are written
    against, so the same workload code runs under the paper's approach,
    the plain allocator, and every related-work baseline.

    All schemes signal a {e detected} temporal error by raising
    {!Shadow.Report.Violation}; an undetected dangling use simply reads
    or writes whatever the memory now holds, exactly as on real hardware.
    A scheme with no mapping for an address lets {!Vmm.Fault.Trap}
    escape — the undiagnosed segfault. *)

type pool_handle = {
  pool_alloc : ?site:string -> int -> Vmm.Addr.t;
  pool_free : ?site:string -> Vmm.Addr.t -> unit;
  pool_destroy : unit -> unit;
}
(** What [poolinit] hands back.  Non-pool schemes map these to their
    plain malloc/free with a no-op destroy, which is how the same
    workload source runs un-pool-transformed. *)

type introspection = ..
(** Scheme-private internals a constructor may choose to expose, carried
    on the scheme record itself so lookup needs no global side table
    (and is therefore safe when schemes are built concurrently on many
    domains).  Constructors extend this type; consumers go through
    {!Schemes.introspect}, which maps it to a closed [info] variant. *)

type introspection += No_introspection
(** The default: nothing beyond the record's own fields. *)

type t = {
  name : string;
  machine : Vmm.Machine.t;
  malloc : ?site:string -> int -> Vmm.Addr.t;
  free : ?site:string -> Vmm.Addr.t -> unit;
  load : Vmm.Addr.t -> width:int -> int;
  store : Vmm.Addr.t -> width:int -> int -> unit;
  pool_create : ?elem_size:int -> unit -> pool_handle;
  compute : int -> unit;
      (** Account [n] instructions of non-memory work (scaled by schemes
          that instrument computation, e.g. the Valgrind model). *)
  extra_memory_bytes : unit -> int;
      (** Checker-private memory (capability stores, shadow maps) beyond
          the program's own heap. *)
  guarantees_detection : bool;
      (** Whether the scheme detects {e all} dangling pointer uses, per
          the paper's taxonomy (ours, Electric Fence, capability-based:
          yes; Valgrind-style heuristics: no). *)
  introspection : introspection;
      (** Constructor-private internals; read via {!Schemes.introspect}. *)
}

val cycles : t -> float
(** Simulated cycles consumed so far on this scheme's machine. *)
