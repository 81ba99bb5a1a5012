(** Packed page-table entries.

    The translation fast path never allocates: a mapping is a single
    tagged integer [(frame lsl 2) lor Perm.code perm], and {!none} ([-1])
    marks an unmapped page.  The radix {!Page_table}, the {!Tlb} and the
    {!Mmu} all traffic in this representation; the record view
    ({!Page_table.entry}) is materialised only on the slow path. *)

type t = int

val none : t
(** The absent entry; the only negative value in circulation. *)

val make : frame:Frame_table.frame -> perm:Perm.t -> t
val is_present : t -> bool
val frame : t -> Frame_table.frame
val perm : t -> Perm.t
val allows : t -> Perm.access -> bool
val with_perm : t -> Perm.t -> t
(** Same frame, new protection bits (the [mprotect] primitive). *)
