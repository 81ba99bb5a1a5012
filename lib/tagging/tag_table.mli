(** Per-granule generation tags: the xTag/LightDE point on the
    overhead-vs-coverage frontier.

    Where the shadow-page scheme buys zero per-access cost with virtual
    address space (every allocation gets a fresh alias, every free an
    [mprotect]), tagging spends a small software check on {e every}
    access and burns no VA at all: allocation embeds a generation tag in
    the pointer's unused high bits, free bumps the generation stored in
    a side table, and a stale pointer's embedded tag no longer matches —
    the check faults deterministically, with instant reuse of both the
    canonical memory and its address.

    The table keyed by 16-byte granule holds the {e full} (unwrapped)
    generation; the hardware-realistic check compares only the low
    [tag_bits] of it against the pointer's tag.  A stale pointer whose
    generation distance is an exact multiple of [2^tag_bits] therefore
    passes the masked check — the scheme's one coverage hole.  Because
    the simulator also carries a wide (15-bit) generation in the pointer
    it can {e attribute} every such pass exactly: the access proceeds
    undetected (as it would on real hardware) but is counted in
    [wrap_masked_passes], which is what lets the differential oracle
    bound asymmetries against shadow paging instead of merely observing
    them.

    Cost model: each check charges 4 instructions (mask, shift,
    tag-byte load, compare).  The modeled table overhead is the
    hardware scheme's — [ceil (tag_bits/8)] bytes per granule ever
    touched; the full-generation and diagnostic storage is simulator
    bookkeeping, outside the cycle model, exactly like
    {!Shadow.Object_registry}. *)

type t

type stats = {
  tag_checks : int;      (** accesses and frees that consulted the table *)
  tag_faults : int;      (** masked-tag mismatches raised as violations *)
  generation_wraps : int;
      (** granule generation increments that crossed a multiple of
          [2^tag_bits] — each opens a wraparound window *)
  wrap_masked_passes : int;
      (** stale accesses that passed the masked check because the
          generation distance was a multiple of [2^tag_bits]: the
          scheme's attributed, bounded misses *)
  table_bytes : int;     (** modeled tag-table overhead, bytes *)
  live_chunks : int;     (** registered chunks not yet freed *)
}

val create : ?tag_bits:int -> Vmm.Machine.t -> t
(** Fresh table over a machine.  [tag_bits] (default 8, max 15) is the
    width of the hardware-checked tag.  Granules are 16 bytes — the
    allocator's minimum alignment, so no two blocks share a granule. *)

val tag_shift : int
(** Bit position of the tag field in a tagged pointer (48: below it is
    address, at and above it generation). *)

val untag : Vmm.Addr.t -> Vmm.Addr.t
(** Strip the tag: the canonical address in the low 48 bits.  [untag 0]
    is 0 — null never acquires a tag. *)

val tag_of : Vmm.Addr.t -> int
(** The (wide, 15-bit) generation embedded in a tagged pointer. *)

val register : t -> base:Vmm.Addr.t -> size:int -> site:string -> Vmm.Addr.t
(** Stamp the granules of [[base, base+size)] with ownership and return
    the tagged pointer to hand out.  Granule generations are normalised
    to their maximum over the span, so every pointer tagged before this
    registration compares strictly stale. *)

val check_access : t -> Vmm.Addr.t -> access:Vmm.Perm.access -> Vmm.Addr.t option
(** Validate a (possibly interior) tagged pointer before an access.
    [Some addr] is the untagged address to translate — either the tag
    matched, or the granule is untracked ([None] is never returned for
    tracked granules).  Returns [None] when the address was never
    registered, so the caller falls through to the raw MMU path.
    Raises {!Shadow.Report.Violation} with [Tag_mismatch] on a stale
    tag, carrying the owning chunk's alloc/free sites. *)

val free : t -> Vmm.Addr.t -> site:string -> Vmm.Addr.t
(** Validate a tagged pointer as a free argument, bump every granule
    generation of its chunk, mark it freed, and return the untagged base
    for the underlying allocator.  Raises {!Shadow.Report.Violation}:
    [Invalid_free] for untracked or interior addresses, [Double_free]
    for an already-freed chunk or a stale tag. *)

val owns : t -> Vmm.Addr.t -> bool
(** Whether the (untagged) address falls in a currently tracked granule
    — used by backend ladders to route frees. *)

val release : t -> base:Vmm.Addr.t -> size:int -> unit
(** Forget the granules of a range that is being handed back to an
    untracked allocator (ladder raw reuse, pool destruction): stale
    pointers into it can no longer fault, which the caller must account
    for as a coverage loss. *)

val stats : t -> stats

val live_chunks : t -> int
