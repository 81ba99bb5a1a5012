(** A simulated machine: physical memory, a page table, a TLB, and event
    counters, under a given cost model.

    The MMU ({!Mmu}) and the kernel ({!Kernel}) both operate on a
    [Machine.t]; user-level code (allocators, workloads) never touches
    frames directly. *)

type t = {
  frames : Frame_table.t;
  page_table : Page_table.t;
  tlb : Tlb.t;
  cache : Cache.t;  (** physically-indexed data cache (stats-only by default) *)
  stats : Stats.t;
  trace : Telemetry.Sink.t;  (** event-trace attachment; disabled by default *)
  mutable cost : Cost_model.t;
  mutable next_va : Addr.t;  (** bump pointer for fresh virtual regions *)
  mutable fault_plan : Fault_plan.t;
      (** fault-injection plan consulted by {!Syscalls}; defaults to
          {!Fault_plan.none}, so an ordinary machine never fails *)
  mutable pools_created : int;
      (** pools made on this machine so far; [Apa.Pool] numbers its
          trace events from it, so the numbering is per machine and does
          not depend on what other domains do *)
}

val create :
  ?cost:Cost_model.t ->
  ?tlb_entries:int ->
  ?trace:Telemetry.Sink.t ->
  ?fault_plan:Fault_plan.t ->
  unit ->
  t
(** Fresh machine.  The virtual address space starts at a non-zero base
    so that address 0 is never valid (null-pointer hygiene).  [trace]
    attaches an event sink (see {!Telemetry.Sink}); its clock is set to
    this machine's simulated cycle count.  [fault_plan] arms syscall
    fault injection for calls made through {!Syscalls}. *)

val fresh_pages : t -> int -> Addr.t
(** Reserve [n] pages of *virtual address space* (no mapping is
    installed); returns the base address.  This models the kernel's
    choice of a fresh VA range for [mmap]/[mremap]. *)

val cycles : t -> float
(** Simulated cycles consumed so far, under the machine's cost model. *)

val cycles_since : t -> Stats.snapshot -> float

val va_bytes_used : t -> int
(** Total virtual address space ever handed out, in bytes — the paper's
    §3.4 exhaustion metric. *)

val exit : t -> unit
(** The process exits, as a forked child does when its connection ends:
    its page buffers and page-table chunks go to the calling domain's
    pools (see {!Frame_table} and {!Page_table}), where the next machine
    built on this domain reuses them, zero-filled.  Nothing is counted:
    {!cycles}, {!va_bytes_used}, the peak frame count and every
    {!Stats} counter read afterwards as they did before.  Any later load,
    store or mapping raises ({!Fault.Trap} [Unmapped] or
    [Invalid_argument]); it never reaches a buffer another machine now
    owns.  Idempotent. *)
