(** Diagnostic side table: shadow virtual page -> object record.

    Detection itself needs {e no} software metadata — the page-table
    permissions do all the work, which is the paper's point.  This
    registry exists only so that, once the MMU has trapped, the handler
    can say {e which} object was used after {e which} free (the quality
    of diagnosis Purify-class tools offer).  It is maintained by the
    shadow allocators at alloc/free/recycle time, outside the simulated
    machine, and costs nothing in the cycle model. *)

type state =
  | Live
  | Freed of { free_site : string }

type obj = {
  id : int;
  canonical : Vmm.Addr.t;     (** address the underlying allocator returned *)
  shadow_base : Vmm.Addr.t;   (** first shadow page's base address *)
  pages : int;                (** shadow pages spanned *)
  user_addr : Vmm.Addr.t;     (** address handed to the program *)
  size : int;                 (** usable (requested) size *)
  alloc_site : string;
  mutable state : state;
}

type t

val create : unit -> t

val register :
  t ->
  canonical:Vmm.Addr.t ->
  shadow_base:Vmm.Addr.t ->
  pages:int ->
  user_addr:Vmm.Addr.t ->
  size:int ->
  alloc_site:string ->
  obj

val find_by_addr : t -> Vmm.Addr.t -> obj option
(** Object whose shadow pages contain the address (live or freed). *)

val mark_freed : t -> obj -> free_site:string -> unit

val forget_range : t -> base:Vmm.Addr.t -> pages:int -> unit
(** Drop records covering a recycled virtual range (pool destroy): once
    a page is legitimately reused, old diagnostics for it are stale. *)

val freed_retained_count : t -> int
(** Freed objects whose records (and protected pages) are still held. *)

val iter_live : t -> (obj -> unit) -> unit
(** Visit every live object exactly once — the heap-word enumeration a
    conservative mark phase scans.  Order is unspecified. *)
