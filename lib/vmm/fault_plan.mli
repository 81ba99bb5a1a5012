(** Deterministic, seeded syscall fault injection.

    A plan is a list of rules consulted by {!Syscalls} on every
    paper-facing kernel call; the first rule whose trigger fires decides
    the injected error.  All randomness comes from the plan's own
    splitmix64 stream, so a (seed, rules, workload) triple always
    reproduces the same fault timeline — a failed campaign run can be
    replayed exactly.

    A machine carries a plan ({!Machine.t}'s [fault_plan] field; the
    default from {!none} never fires), so fault behaviour follows the
    machine through every scheme built on it. *)

type errno =
  | Enomem  (** kernel out of memory for page tables / VMAs *)
  | Eagain  (** transient resource pressure *)
  | Eacces
  | Einval  (** malformed request — also what {!Syscalls} maps the raw
                kernel layer's [Invalid_argument] rejections to *)
  | Enospc  (** virtual-address budget exhausted (§3.4) *)

type error =
  | Transient of errno  (** worth retrying with backoff *)
  | Fatal of errno      (** retrying cannot help *)

exception Syscall_failure of { name : string; error : error }
(** Raised by raising convenience wrappers (e.g. {!Shadow_heap.malloc})
    when the typed path underneath them fails and no caller is prepared
    to degrade gracefully. *)

type call =
  | Mmap
  | Mmap_fixed
  | Mremap
  | Mprotect
  | Munmap

type trigger =
  | Rate of float  (** each matching call fails with this probability *)
  | Nth_call of int  (** exactly the nth matching call (1-based) fails *)
  | Burst of { first : int; length : int }
      (** matching calls numbered [first .. first+length-1] all fail *)
  | Va_budget of int
      (** fires once the machine has handed out more than this many
          bytes of virtual address space — the §3.4 exhaustion model as
          an injectable failure mode *)

type rule = {
  calls : call list;  (** which syscalls the rule covers; [[]] = all *)
  trigger : trigger;
  error : error;
}

type t

val create : ?seed:int -> rule list -> t
(** Raises [Invalid_argument] if any [Rate] probability is outside
    [0, 1]. *)

val none : unit -> t
(** The empty plan: never injects. *)

val has_rules : t -> bool

val decide : t -> call -> va_bytes:int -> error option
(** Advance the per-call attempt counter and report whether this call
    should fail.  [va_bytes] is the machine's current
    {!Machine.va_bytes_used}. *)

val injected : t -> int
(** Total faults injected so far. *)

val attempts : t -> call -> int
(** Calls of this kind seen so far (including injected ones). *)

val errno_label : errno -> string
val error_label : error -> string
val is_transient : error -> bool
