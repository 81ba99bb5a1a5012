open Vmm

type state = { registry : Shadow.Object_registry.t }

let malloc st machine ?(site = "<unknown>") size =
  if size <= 0 then invalid_arg "Efence.malloc: size <= 0";
  let data_pages = Addr.pages_spanning 0 size in
  (* Unlike the shadow scheme there is no canonical/shadow split: the one
     mapping owns its frames outright — that is exactly the flaw. *)
  let base =
    Syscalls.ok_or_raise ~name:"Efence.malloc"
      (Syscalls.mmap machine ~pages:(data_pages + 1))
  in
  let guard = base + (data_pages * Addr.page_size) in
  Syscalls.ok_or_raise ~name:"Efence.malloc"
    (Syscalls.mprotect machine ~addr:guard ~pages:1 Perm.No_access);
  (* Real Electric Fence places the object flush against the end of its
     page(s), so even a one-byte overrun lands on the guard page (at the
     price of leaving underruns uncaught). *)
  let user = guard - ((size + 7) land lnot 7) in
  ignore
    (Shadow.Object_registry.register st.registry ~canonical:base
       ~shadow_base:base ~pages:data_pages ~user_addr:user ~size
       ~alloc_site:site);
  user

let free st machine ?(site = "<unknown>") addr =
  match Shadow.Object_registry.find_by_addr st.registry addr with
  | Some obj
    when obj.Shadow.Object_registry.user_addr = addr
         && obj.Shadow.Object_registry.state = Shadow.Object_registry.Live ->
    Syscalls.ok_or_raise ~name:"Efence.free"
      (Syscalls.mprotect machine ~addr:obj.Shadow.Object_registry.shadow_base
         ~pages:obj.Shadow.Object_registry.pages Perm.No_access);
    Shadow.Object_registry.mark_freed st.registry obj ~free_site:site
  | Some obj ->
    let kind =
      match obj.Shadow.Object_registry.state with
      | Shadow.Object_registry.Freed _ -> Shadow.Report.Double_free
      | Shadow.Object_registry.Live -> Shadow.Report.Invalid_free
    in
    raise
      (Shadow.Report.Violation
         {
           Shadow.Report.kind;
           fault_addr = addr;
           object_info = Some (Shadow.Detector.object_info obj);
         })
  | None ->
    raise
      (Shadow.Report.Violation
         {
           Shadow.Report.kind = Shadow.Report.Invalid_free;
           fault_addr = addr;
           object_info = None;
         })

let scheme machine =
  let st = { registry = Shadow.Object_registry.create () } in
  let guard f = Shadow.Detector.guard st.registry ~in_free:false f in
  Pool_scheme.build ~name:"electric-fence" machine ~pool:ignore
    ~wrap:(fun () ->
      {
        Scheme.pool_alloc = malloc st machine;
        pool_free = free st machine;
        pool_destroy = ignore;
      })
    ~load:(fun addr ~width -> guard (fun () -> Mmu.load machine addr ~width))
    ~store:(fun addr ~width v ->
      guard (fun () -> Mmu.store machine addr ~width v))
    ~extra_memory_bytes:(fun () -> 0)
    ~guarantees_detection:true
    ~introspection:(fun () -> Scheme.No_introspection)
