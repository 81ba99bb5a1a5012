(** Diagnostic reports produced when the MMU catches a temporal memory
    error.  This is what the paper's trap handler would print: the bad
    access, plus the allocation and free sites of the object involved. *)

type kind =
  | Use_after_free of Vmm.Perm.access
      (** Load or store through a pointer to a freed object. *)
  | Double_free
      (** [free] of an already-freed object (caught when reading the
          canonical-page header word traps). *)
  | Invalid_free
      (** [free] of an address that was never a live allocation. *)
  | Wild_access of Vmm.Perm.access
      (** Access to an address that no allocation ever covered. *)
  | Out_of_bounds of Vmm.Perm.access
      (** Spatial violation: the address is on a live object's shadow
          page but outside the object's [0, size) extent — caught only
          by the combined spatial+temporal scheme (the paper's
          future-work "comprehensive safety checking tool"). *)
  | Tag_mismatch of Vmm.Perm.access
      (** Temporal violation caught by the pointer-tagging backend: the
          pointer's embedded generation tag no longer matches the
          granule's current generation ([Tagging.Tag_table]).  Same bug
          class as [Use_after_free], different detector. *)

type object_info = {
  object_id : int;
  size : int;
  offset : int;        (** byte offset of the faulting address in the object *)
  alloc_site : string;
  free_site : string option;
}

type t = {
  kind : kind;
  fault_addr : Vmm.Addr.t;
  object_info : object_info option;  (** [None] for wild accesses *)
}

exception Violation of t
(** Raised at the point of detection, in lieu of the paper's SIGSEGV
    handler aborting (or logging and recovering in) the process. *)

val kind_label : kind -> string
(** The canonical label for a violation kind: the {e single} source of
    the stringly-typed kind carried by [Telemetry.Event.Violation]
    events and by fleet crash signatures ([Fleet.Crash]), so traces and
    crash reports can never drift apart.  Labels are distinct across
    kinds and round-trip through {!kind_of_label}. *)

val all_kinds : kind list
(** Every constructor, for exhaustiveness checks and round-tripping. *)

val kind_of_label : string -> kind option
(** Inverse of {!kind_label}; [None] for a string no kind produces. *)

val to_event : t -> Telemetry.Event.kind
(** The telemetry event for this violation — the one constructor every
    tracing site uses, so event kinds come from {!kind_label}. *)

val to_string : t -> string
