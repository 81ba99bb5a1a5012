(** The per-process page table: virtual page -> (physical frame, permission).

    This is the data structure the paper's whole detection argument rests
    on: distinct virtual pages may map to one frame, and permissions are
    per *virtual* page, so protecting a freed object's shadow page does
    not disturb other objects sharing the frame.

    Implementation: a two-level radix table (directory of lazily
    allocated chunks of packed {!Pte} entries) — lookup is two array
    indexations, no hashing and no allocation. *)

type t

type entry = { frame : Frame_table.frame; perm : Perm.t }

val create : unit -> t

val map : t -> Stats.t -> page:int -> frame:Frame_table.frame -> perm:Perm.t -> unit
(** Install a mapping for a virtual page.  The page must not already be
    mapped (the kernel unmaps first when re-mapping). *)

val unmap : t -> page:int -> entry
(** Remove and return the entry; raises [Invalid_argument] if unmapped. *)

val lookup : t -> page:int -> entry option

val pte : t -> page:int -> Pte.t
(** Allocation-free lookup: the packed entry, or {!Pte.none}.  This is
    the MMU's table walk; every call counts toward {!walk_count}. *)

val set_perm : t -> page:int -> Perm.t -> unit
(** Change protection bits; raises [Invalid_argument] if unmapped. *)

val set_perm_range : t -> page:int -> pages:int -> Perm.t -> unit
(** {!set_perm} over a contiguous range, one chunk traversal per chunk
    touched.  Validates the whole range before writing, so a failed call
    leaves the table unchanged. *)

val is_mapped : t -> page:int -> bool
val mapped_pages : t -> int
(** Number of live virtual-page mappings (virtual memory footprint). *)

val walk_count : t -> int
(** Diagnostic: total table walks ({!pte}/{!lookup} calls) performed.
    The fast-path tests use this to prove that TLB hits skip the page
    table entirely. *)
