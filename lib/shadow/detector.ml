let object_info (obj : Object_registry.obj) =
  {
    Report.object_id = obj.id;
    size = obj.size;
    offset = 0;
    alloc_site = obj.alloc_site;
    free_site =
      (match obj.state with
       | Object_registry.Live -> None
       | Object_registry.Freed { free_site } -> Some free_site);
  }

let report kind addr (obj : Object_registry.obj) =
  {
    Report.kind;
    fault_addr = addr;
    object_info = Some { (object_info obj) with offset = addr - obj.user_addr };
  }

let classify registry ~in_free fault =
  let addr = Vmm.Fault.addr fault in
  let access = Vmm.Fault.access fault in
  match Object_registry.find_by_addr registry addr with
  | Some obj ->
    let kind =
      match obj.state, in_free with
      | Object_registry.Freed _, true -> Report.Double_free
      | Object_registry.Freed _, false -> Report.Use_after_free access
      | Object_registry.Live, true -> Report.Invalid_free
      | Object_registry.Live, false ->
        (* A protected page of a live object cannot arise in our scheme;
           report it as wild rather than mask a simulator bug. *)
        Report.Wild_access access
    in
    report kind addr obj
  | None ->
    let kind =
      if in_free then Report.Invalid_free else Report.Wild_access access
    in
    { Report.kind; fault_addr = addr; object_info = None }

let guard registry ~in_free thunk =
  try thunk () with
  | Vmm.Fault.Trap fault ->
    raise (Report.Violation (classify registry ~in_free fault))
