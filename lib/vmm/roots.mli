(** The simulated mutator root set for conservative scanning (§3.4).

    The paper's infrequent GC over long-lived pools must prove a freed
    shadow range unreferenced before recycling it, which means scanning
    everything a pointer could hide in: machine registers, the stack,
    and globals.  The simulated machine has none of those as hardware
    state — workloads keep pointers in OCaml variables — so this module
    gives a harness an explicit place to park the pointer words the
    collector is expected to see.  A word the harness does {e not}
    register here models a pointer the real collector could not see
    either (one kept in a file, another process, or an encoded form),
    which is exactly the conservative-GC residual risk the paper
    accepts.

    Zero marks an empty slot: the machine's VA base is non-zero, so no
    valid pointer is ever 0 and enumeration skips such words. *)

type source =
  | Register of int
  | Stack of int  (** depth from the stack bottom *)
  | Global of int  (** global slot number *)

val source_label : source -> string
(** ["register[3]"], ["stack[7]"], ["global[2]"] — for witness
    diagnostics. *)

type t

val create : unit -> t
(** An empty root set with 16 machine registers, an empty stack, and no
    globals. *)

val set_register : t -> int -> int -> unit
(** [set_register t i v] — [v = 0] empties the register.  Raises
    [Invalid_argument] on an out-of-range index. *)

val clear_register : t -> int -> unit

val push_stack : t -> int -> unit
val stack_depth : t -> int

val set_global : t -> slot:int -> int -> unit
(** [v = 0] clears the slot, as with registers. *)

val clear_global : t -> slot:int -> unit
val global : t -> slot:int -> int option

val iter_words : t -> (source -> int -> unit) -> unit
(** Every non-zero root word, in a deterministic order: registers by
    index, stack bottom-up, globals by slot. *)

val word_count : t -> int
(** Words a full root scan visits (including empty ones — the scan cost
    model charges for looking, not for finding). *)

val iter_heap_words :
  Machine.t -> addr:Addr.t -> bytes:int -> (Addr.t -> int -> unit) -> unit
(** [iter_heap_words m ~addr ~bytes f] calls [f word_addr value] for
    every non-zero word-aligned 8-byte word fully inside
    [addr, addr+bytes), read in kernel mode — one {!Mmu.kernel_frame}
    walk per page, then the words straight from that frame — so the
    scan neither trips page protections (live objects are readable
    anyway) nor perturbs user access statistics or the TLB.  The
    sub-word tail is not scanned: pointers are stored word-aligned by
    convention. *)

val heap_word_count : addr:Addr.t -> bytes:int -> int
(** Words {!iter_heap_words} would visit (zero or not) — the scan-cost
    denominator. *)
