open Vmm

(* The enabled check lives at the call site so the disabled path never
   allocates the event thunk (closures capture site/size/addr). *)
let trace_malloc machine site size addr =
  if Telemetry.Sink.enabled machine.Machine.trace then
    Telemetry.Sink.emit machine.Machine.trace (fun () ->
        Telemetry.Event.Malloc { site; size; addr })

let trace_free machine site addr =
  if Telemetry.Sink.enabled machine.Machine.trace then
    Telemetry.Sink.emit machine.Machine.trace (fun () ->
        Telemetry.Event.Free { site; addr })

let trace_violation machine (r : Shadow.Report.t) =
  Telemetry.Sink.emit_always machine.Machine.trace (fun () ->
      Shadow.Report.to_event r)

let guarded_load machine registry addr ~width =
  try
    Shadow.Detector.guard registry ~in_free:false (fun () ->
        Mmu.load machine addr ~width)
  with Shadow.Report.Violation r as exn ->
    trace_violation machine r;
    raise exn

let guarded_store machine registry addr ~width v =
  try
    Shadow.Detector.guard registry ~in_free:false (fun () ->
        Mmu.store machine addr ~width v)
  with Shadow.Report.Violation r as exn ->
    trace_violation machine r;
    raise exn

let build ~name machine ~pool ~wrap ~load ~store ~extra_memory_bytes
    ~guarantees_detection ~introspection =
  let global = pool None in
  let handle = wrap global in
  {
    Scheme.name;
    machine;
    malloc = handle.Scheme.pool_alloc;
    free = handle.Scheme.pool_free;
    load;
    store;
    pool_create = (fun ?elem_size () -> wrap (pool elem_size));
    compute = (fun n -> Stats.count_instructions machine.Machine.stats n);
    extra_memory_bytes;
    guarantees_detection;
    introspection = introspection global;
  }

(* Tag check first (the table owns the granule or it does not), then
   the guarded MMU access on the untagged address. *)
let tag_checked machine table registry =
  let untagged access addr =
    match Tagging.Tag_table.check_access table addr ~access with
    | Some raw -> raw
    | None -> Tagging.Tag_table.untag addr
    | exception (Shadow.Report.Violation r as exn) ->
      trace_violation machine r;
      raise exn
  in
  ( (fun addr ~width ->
      guarded_load machine registry (untagged Perm.Read addr) ~width),
    fun addr ~width v ->
      guarded_store machine registry (untagged Perm.Write addr) ~width v )

let tagged_pool machine table ~alloc_raw ~dealloc_raw ~destroy =
  (* untagged base -> tagged pointer: the pool's live set, so destroy
     can retire every chunk the program never freed. *)
  let live : (Addr.t, Addr.t) Hashtbl.t = Hashtbl.create 64 in
  ( {
      Scheme.pool_alloc =
        (fun ?(site = "<unknown>") size ->
          let base = alloc_raw size in
          let tp = Tagging.Tag_table.register table ~base ~size ~site in
          Hashtbl.replace live base tp;
          trace_malloc machine site size tp;
          tp);
      pool_free =
        (fun ?(site = "<unknown>") a ->
          match Tagging.Tag_table.free table a ~site with
          | base ->
            Hashtbl.remove live base;
            dealloc_raw base;
            trace_free machine site base
          | exception (Shadow.Report.Violation r as exn) ->
            trace_violation machine r;
            raise exn);
      pool_destroy =
        (fun () ->
          Hashtbl.iter
            (fun _ tp ->
              ignore (Tagging.Tag_table.free table tp ~site:"<pool-destroy>"))
            live;
          Hashtbl.reset live;
          destroy ());
    },
    fun a ->
      let base = Tagging.Tag_table.untag a in
      Hashtbl.mem live base && Tagging.Tag_table.owns table base )
