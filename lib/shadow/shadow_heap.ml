open Vmm

let header_bytes = 8

type t = {
  machine : Machine.t;
  allocator : Heap.Allocator_intf.t;
  registry : Object_registry.t;
  shadow_placer : int -> Addr.t option;
  shadow_unplace : base:Addr.t -> pages:int -> unit;
  on_shadow_range : base:Addr.t -> pages:int -> unit;
  shadow_alias :
    (src:Addr.t -> pages:int -> (Addr.t, Fault_plan.error) result) option;
  mutable unprotected_frees : int;
}

let create ?(shadow_placer = fun _ -> None)
    ?(shadow_unplace = fun ~base:_ ~pages:_ -> ())
    ?(on_shadow_range = fun ~base:_ ~pages:_ -> ()) ?shadow_alias ~registry
    ~allocator machine =
  {
    machine;
    allocator;
    registry;
    shadow_placer;
    shadow_unplace;
    on_shadow_range;
    shadow_alias;
    unprotected_frees = 0;
  }

let trace_malloc t site size addr =
  if Telemetry.Sink.enabled t.machine.Machine.trace then
    Telemetry.Sink.emit t.machine.Machine.trace (fun () ->
        Telemetry.Event.Malloc { site; size; addr })

let trace_free t site addr =
  if Telemetry.Sink.enabled t.machine.Machine.trace then
    Telemetry.Sink.emit t.machine.Machine.trace (fun () ->
        Telemetry.Event.Free { site; addr })

(* One whole-allocation attempt: canonical block, then the shadow alias
   through the injectable syscall boundary.  On failure everything is
   undone (block back to the allocator, recycled VA back to its donor),
   so a retry loop can simply call again — and a caller with no retry
   path inherits an unchanged heap. *)
let try_malloc t ?(site = "<unknown>") size =
  if size <= 0 then invalid_arg "Shadow_heap.malloc: size <= 0";
  let total = size + header_bytes in
  let canonical = t.allocator.alloc total in
  let pages = Addr.pages_spanning canonical total in
  let src = Addr.page_base canonical in
  let placed =
    match t.shadow_alias with
    | Some alias -> alias ~src ~pages
    | None ->
      (match t.shadow_placer pages with
       | Some dst ->
         (match Syscalls.mremap_alias_at t.machine ~src ~dst ~pages with
          | Ok () -> Ok dst
          | Error e ->
            t.shadow_unplace ~base:dst ~pages;
            Error e)
       | None -> Syscalls.mremap_alias t.machine ~src ~pages)
  in
  match placed with
  | Error e ->
    t.allocator.dealloc canonical;
    Error e
  | Ok shadow_base ->
    t.on_shadow_range ~base:shadow_base ~pages;
    let user = shadow_base + Addr.offset canonical + header_bytes in
    (* Record the canonical address in the extra word, through the shadow
       mapping — the store lands on the shared physical page. *)
    Mmu.store t.machine (user - header_bytes) ~width:8 canonical;
    ignore
      (Object_registry.register t.registry ~canonical ~shadow_base ~pages
         ~user_addr:user ~size ~alloc_site:site);
    Stats.count_alloc_op t.machine.Machine.stats;
    trace_malloc t site size user;
    Ok user

let malloc t ?site size =
  Syscalls.ok_or_raise ~name:"Shadow_heap.malloc" (try_malloc t ?site size)

let violation kind fault_addr info =
  raise (Report.Violation { Report.kind; fault_addr; object_info = info })

let trace_violation t (r : Report.t) =
  Telemetry.Sink.emit_always t.machine.Machine.trace (fun () ->
      Report.to_event r)

(* Locate the object a free argument refers to.  Reading the bookkeeping
   word is itself the double-free check: a freed object's shadow page is
   PROT_NONE, so this load traps.  The registry-state check underneath
   it is the software backstop for objects whose free was performed
   {e unprotected} (degraded mode): their pages never got protected, so
   only the registry remembers they are dead. *)
let find_free_target t user =
  let canonical =
    Detector.guard t.registry ~in_free:true (fun () ->
        Mmu.load t.machine (user - header_bytes) ~width:8)
  in
  match Object_registry.find_by_addr t.registry user with
  | Some obj when obj.Object_registry.state <> Object_registry.Live ->
    violation Report.Double_free user (Some (Detector.object_info obj))
  | Some obj when obj.Object_registry.user_addr = user ->
    if obj.Object_registry.canonical <> canonical then
      failwith
        "Shadow_heap.free: bookkeeping word disagrees with the registry \
         (invariant: the canonical address stored through the shadow \
         mapping at malloc time matches the registry record)";
    obj
  | Some obj ->
    (* Interior pointer passed to free. *)
    violation Report.Invalid_free user (Some (Detector.object_info obj))
  | None -> violation Report.Invalid_free user None

let complete_free t (obj : Object_registry.obj) ~site user =
  Object_registry.mark_freed t.registry obj ~free_site:site;
  t.allocator.dealloc obj.Object_registry.canonical;
  Stats.count_free_op t.machine.Machine.stats;
  trace_free t site user

let with_violation_trace t thunk =
  try thunk ()
  with Report.Violation r as exn ->
    trace_violation t r;
    raise exn

let try_free t ?(site = "<unknown>") user =
  with_violation_trace t (fun () ->
      let obj = find_free_target t user in
      match
        Syscalls.mprotect t.machine ~addr:obj.Object_registry.shadow_base
          ~pages:obj.Object_registry.pages Perm.No_access
      with
      | Error e -> Error e (* the object stays live; caller may retry *)
      | Ok () ->
        complete_free t obj ~site user;
        Ok ())

let free t ?site user =
  Syscalls.ok_or_raise ~name:"Shadow_heap.free" (try_free t ?site user)

(* Epoch-mode free: validate and mark the object freed now (so a
   double free in the quarantine window still trips the registry
   check), but defer BOTH the protecting mprotect and the canonical
   dealloc to the caller's epoch — deferring dealloc too is what makes
   the quarantine real: physical reuse cannot outrun protection.  The
   caller must eventually protect the shadow range and then call
   [release_canonical]. *)
let free_deferred t ?(site = "<unknown>") user =
  with_violation_trace t (fun () ->
      let obj = find_free_target t user in
      Object_registry.mark_freed t.registry obj ~free_site:site;
      Stats.count_free_op t.machine.Machine.stats;
      trace_free t site user;
      obj)

let release_canonical t (obj : Object_registry.obj) =
  t.allocator.dealloc obj.Object_registry.canonical

let free_unprotected t ?(site = "<unknown>") user =
  with_violation_trace t (fun () ->
      let obj = find_free_target t user in
      complete_free t obj ~site user;
      t.unprotected_frees <- t.unprotected_frees + 1;
      obj)

let registry t = t.registry
let machine t = t.machine
let unprotected_frees t = t.unprotected_frees

let size_of t user =
  match Object_registry.find_by_addr t.registry user with
  | Some obj
    when obj.Object_registry.user_addr = user
         && obj.Object_registry.state = Object_registry.Live ->
    obj.Object_registry.size
  | Some _ | None -> invalid_arg "Shadow_heap.size_of: not a live object"
