(** Allocation-trace record and replay.

    A trace is a scheme-independent script of heap events — allocations
    (by object index), frees, reads and writes (by object index and
    offset), pool scopes, and bulk compute — that can be replayed
    verbatim against any {!Runtime.Scheme.t}.  This is how we compare
    schemes on {e identical} workloads: same objects, same order, same
    access pattern, only the protection mechanism differs.

    Traces can be generated randomly (seeded, correct-by-construction:
    no temporal errors), written to / parsed from a simple line format,
    and replayed with full result capture for differential testing. *)

type event =
  | Alloc of { obj : int; size : int; pool : int option }
      (** allocate object [obj] (indices are dense, increasing) from the
          given pool, or from the top-level heap *)
  | Free of { obj : int }
  | Read of { obj : int; offset : int; width : int }
  | Write of { obj : int; offset : int; width : int; value : int }
  | Pool_begin of { pool : int }  (** poolinit *)
  | Pool_end of { pool : int }
      (** pooldestroy (the pool's live objects become unusable) *)
  | Compute of { instructions : int }

type t = event list

val generate : seed:int -> length:int -> unit -> t
(** A random, temporally-correct trace: reads/writes target live
    objects, frees are unique, pool scopes nest, and objects allocated
    inside a pool are not touched after its [Pool_end]. *)

type replay_result = {
  reads : (int * int) list;  (** (event index, value read) in order *)
  violations : int;          (** violations raised (0 for correct traces) *)
}

val replay : t -> Runtime.Scheme.t -> replay_result
(** Execute the trace.  Detected violations are counted and the
    offending event skipped (so replay is total); for the correct traces
    {!generate} produces, [violations] must be 0 under every scheme. *)

val to_string : t -> string
(** One event per line, e.g. [alloc 0 48 -], [write 0 8 8 42], [free 0]. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} format (blank lines and [#] comments ok). *)

val length : t -> int
val live_objects_at_end : t -> int

val record : Runtime.Scheme.t -> Runtime.Scheme.t * (unit -> t)
(** [record scheme] wraps a scheme so that every heap event performed
    through the wrapper is captured; the returned thunk yields the trace
    so far.  Accesses to addresses outside recorded objects (e.g. raw
    mmap regions) are performed but not recorded.  Run any workload
    against the wrapper and replay its exact heap behaviour under any
    other scheme. *)
