(** Cycle cost model.

    Converts a {!Stats.snapshot} into simulated cycles.  One profile per
    "compiler" reproduces the paper's native-GCC vs. LLVM-base code
    quality distinction: the [code_quality] factor scales the cost of
    instructions and memory accesses (the work the compiler emitted), but
    not syscalls or TLB miss penalties (fixed hardware/OS costs).

    Default constants are chosen to be in the ballpark of the paper's
    2006-era Xeon: ~1 cycle per simple instruction, ~30 cycles per TLB
    miss walk, ~2500 cycles per system call round trip. *)

type t = {
  name : string;
  instr_cost : float;        (** cycles per accounted instruction *)
  load_cost : float;         (** cycles per load (cache modeled implicitly) *)
  store_cost : float;        (** cycles per store *)
  tlb_miss_penalty : float;  (** extra cycles per TLB miss *)
  cache_miss_penalty : float;
      (** extra cycles per data-cache miss; 0 in the default profiles
          (cache effects are folded into the code-quality factor, to keep
          the paper-table calibration), nonzero only in the cache
          ablation via {!with_cache_penalty} *)
  shootdown_cost : float;
      (** extra cycles per ranged TLB shootdown operation (an IPI on a
          real SMP); 0 in the default profiles — the calibration folds
          shootdown cost into [syscall_cost], since every shootdown rides
          an [mprotect]/[munmap] — nonzero only in the shootdown ablation
          via {!with_shootdown_cost}.  Charged per {e operation}, so
          batching N pages into one shootdown is N times cheaper than N
          per-page calls. *)
  syscall_cost : float;      (** cycles per syscall (entry/exit + work) *)
  fault_cost : float;        (** cycles to deliver a trap to the handler *)
  code_quality : float;      (** multiplier on compiler-emitted work *)
}

val native : t
(** GCC [-O3]-quality code. *)

val llvm_base : t
(** The paper's LLVM C-backend baseline: same machine, slightly different
    (here: marginally worse) code quality than GCC. *)

val with_code_quality : t -> float -> t
(** Replace the code-quality factor, e.g. to model Automatic Pool
    Allocation's locality effects on a specific workload. *)

val with_cache_penalty : t -> float -> t
(** Charge this many cycles per data-cache miss (cache ablation). *)

val with_shootdown_cost : t -> float -> t
(** Charge this many cycles per ranged TLB shootdown (batching
    ablation). *)

val cycles : t -> Stats.snapshot -> float
(** Total simulated cycles for a snapshot (typically a {!Stats.diff}). *)
