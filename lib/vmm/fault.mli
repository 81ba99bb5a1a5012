(** Hardware memory faults raised by the {!Mmu}.

    A fault carries enough context for a run-time system (the paper's
    SIGSEGV handler) to classify the event — e.g. as a dangling pointer
    use — by consulting its own object registry. *)

type t =
  | Unmapped of { addr : Addr.t; access : Perm.access }
      (** Access to a virtual page with no page-table entry. *)
  | Protection of { addr : Addr.t; access : Perm.access; perm : Perm.t }
      (** Access denied by the page's protection bits ([perm] is the
          page's current protection). *)

exception Trap of t
(** Raised by {!Mmu.load} / {!Mmu.store} on a faulting access. *)

val addr : t -> Addr.t
val access : t -> Perm.access
val to_string : t -> string
