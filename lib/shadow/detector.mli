(** The trap handler: turns a raw MMU fault into a diagnosed temporal
    memory error, using the {!Object_registry}. *)

val object_info : Object_registry.obj -> Report.object_info
(** Diagnostic fields for an object (offset left 0). *)

val report : Report.kind -> Vmm.Addr.t -> Object_registry.obj -> Report.t
(** A violation of [kind] at [addr] inside [obj]: the object's
    diagnostics with the offset of [addr] in it. *)

val guard : Object_registry.t -> in_free:bool -> (unit -> 'a) -> 'a
(** Run a thunk, converting any {!Vmm.Fault.Trap} it raises into a
    {!Report.Violation} with full diagnostics. *)
