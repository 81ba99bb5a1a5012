(** Conservative mark phase over a long-lived pool's freed shadow
    ranges — the paper's §3.4 "infrequent garbage collection applied
    only to the long-lived pools", made real.

    A freed-but-still-protected shadow range may only be recycled once
    no reachable word could still name it; otherwise the recycling
    silently converts a guaranteed trap into a wild access.  {!run}
    scans the simulated root set ({!Vmm.Roots}: registers, stack,
    globals) and the heap words of every live object in the pool's
    registry, conservatively treating {e any} word whose value lands
    inside a freed range — interior pointers included — as a witness.

    Ranges with a witness stay {b pinned}: still protected, still
    trapping, witness recorded, re-scanned on the next run.  Only
    proven-unreferenced ranges are released, through
    {!Shadow_pool.reclaim_ranges}, whose [munmap]s are coalesced the
    way epoch retirement coalesces [mprotect]s.  The detection
    guarantee is therefore never traded away by a GC cycle — exactly
    the property the soak bench's differential oracle enforces.

    Scan cost is charged to the simulated machine (2 instructions per
    word looked at), and every run updates the
    endurance gauges ([shadow.va_pages_used],
    [shadow.va_pages_reclaimed], [shadow.gc_pinned_ranges]), observes
    the pause-duration histogram ([shadow.gc_pause_instructions]) and
    emits a [Gc_run] trace event. *)

type witness = {
  w_source : string;  (** root slot or ["heap:<site>#<id>"] *)
  w_word_addr : Vmm.Addr.t option;  (** heap word's address; [None] for roots *)
  w_value : Vmm.Addr.t;  (** the word value that landed in the range *)
}

type pinned = {
  p_base : Vmm.Addr.t;
  p_pages : int;
  p_witness : witness;  (** first witness found (one suffices to pin) *)
}

type report = {
  freed_ranges : int;  (** candidate ranges examined *)
  scanned_words : int;  (** root + heap words visited *)
  pinned : pinned list;
  reclaimed : (Vmm.Addr.t * int) list;  (** ranges actually released *)
  reclaimed_pages : int;
  pause_instructions : int;  (** scan cost charged to the machine *)
}

type t

val create : roots:Vmm.Roots.t -> Shadow_pool.t -> t
(** A collector over one long-lived pool. *)

val run : t -> report
(** One full cycle: mark, pin, reclaim.  Cheap when the pool holds no
    freed ranges (nothing is scanned). *)

val runs : t -> int
val total_reclaimed_pages : t -> int
val total_scanned_words : t -> int

val last_pinned : t -> pinned list
(** The ranges the most recent run kept; they remain in the pool's
    freed set and are re-examined by the next {!run}. *)

val pool : t -> Shadow_pool.t
