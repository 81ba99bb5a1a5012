(** Physical memory: a growable set of reference-counted page frames.

    Each frame is one page of byte storage.  Frames are reference-counted
    because the whole point of the paper's scheme is that several virtual
    pages (one canonical, many shadow) alias one physical frame; a frame
    is released only when its last mapping is removed.

    Frames live in a slot array indexed by frame number (lookup is one
    array read, no hashing); retired frame numbers are reused, as a real
    physical page allocator would, so a table's slot array is bounded by
    its peak — not cumulative — frame count.

    Page buffers are recycled per domain, not per table.  A frame whose
    last mapping goes, and every frame of a {!release}d table, hands its
    4 KiB buffer to the calling domain's pool ([Domain.DLS]);
    {!allocate} takes from that pool, zero-filled, before it makes a
    fresh buffer.  The pool has no cap and needs none: a buffer enters it
    only by leaving a table, so the pool plus the live frames of the
    domain's tables never exceed the most frames those tables held at
    once.  For a fork-per-connection server that runs one child at a
    time per domain, that is the largest child that ran there. *)

type t
type frame = int (** Physical frame number. *)

val create : unit -> t

val allocate : t -> Stats.t -> frame
(** Allocate a zeroed frame with reference count 0 (the caller maps it,
    which takes the first reference).  Frame numbers of fully released
    frames may be reused; the buffer comes from the domain's pool when it
    has one. *)

val release : t -> unit
(** The owning process exits: every live frame's buffer goes to the
    domain's pool, whatever its reference count.  The table is dead
    afterwards — any frame access raises [Invalid_argument], and so does
    {!allocate} — so it never reads a buffer that another table now
    owns.  {!peak_frames} keeps its value; {!live_frames} reads 0.  Counts
    nothing in {!Stats}.  Idempotent. *)

val incr_ref : t -> frame -> unit
val decr_ref : t -> frame -> unit
(** Release one mapping reference.  When the count drops to zero the
    frame number is freed and its buffer goes to the domain's pool. *)

val ref_count : t -> frame -> int
val live_frames : t -> int
(** Number of frames currently allocated — the program's physical memory
    footprint in pages. *)

val peak_frames : t -> int
(** High-water mark of {!live_frames}. *)

val read_byte : t -> frame -> int -> int
val write_byte : t -> frame -> int -> int -> unit
(** [read_byte t f off] / [write_byte t f off v]: byte access within a
    frame; [off] in [\[0, page_size)], [v] in [\[0, 256)]. *)

val read_word : t -> frame -> int -> width:int -> int
val write_word : t -> frame -> int -> int -> width:int -> unit
(** Word-wide little-endian access: one frame lookup and one [Bytes]
    word primitive for the whole value.  [width] in 1/2/4/8;
    [off + width] must not exceed the page.  Bit-compatible with the
    byte accessors (an 8-byte value round-trips modulo 2^63, exactly as
    the per-byte loop did). *)

val exists : t -> frame -> bool

val lookup_count : t -> int
(** Diagnostic: total slot lookups performed — the fast-path tests use
    this to prove a word access costs exactly one frame lookup. *)
