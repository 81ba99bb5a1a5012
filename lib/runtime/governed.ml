open Vmm

type t = {
  scheme : Scheme.t;
  governor : Governor.t;
  registry : Shadow.Object_registry.t;
  unprotected_allocs : int ref;
  (* Every address that ever lived without page protection — raw
     (sampled-out / fallback) allocations by their block address,
     unprotected frees by the object's user address.  Never cleared:
     this is the attribution record for detection misses.  Tagged
     fallback allocations are NOT recorded here: the tag table still
     guards them. *)
  ever_unprotected : (Addr.t, unit) Hashtbl.t;
  (* The tag table when this is a backend ladder; None for the classic
     sample-rate ladders. *)
  table : Tagging.Tag_table.t option;
}

let scheme t = t.scheme
let governor t = t.governor
let tag_table t = t.table
let unprotected_allocs t = !(t.unprotected_allocs)
let unprotected_frees t = Governor.unprotected_free_count t.governor

let was_unprotected t addr =
  Hashtbl.mem t.ever_unprotected addr
  ||
  match Shadow.Object_registry.find_by_addr t.registry addr with
  | Some obj ->
    Hashtbl.mem t.ever_unprotected obj.Shadow.Object_registry.user_addr
  | None -> false

(* The governed handle over one backing pool/heap, parameterised over
   its primitive operations.  [raw_live] tracks the blocks this
   particular backing currently holds without a registry record, so
   their frees can be routed back to the raw deallocator.  A shadow
   allocation whose syscalls fail after retries falls back to [tagged]
   when there is one (the object stays guarded, by the backend that
   needs no syscalls) and to a raw block otherwise; the [Tagged] rung
   allocates there too.  Frees route by ownership: the tag table knows
   its chunks, raw blocks are tracked here, everything else is a shadow
   free. *)
let governed_ops ~machine ~governor ~ever_unprotected ~unprotected_allocs
    ~try_alloc ~try_free_protected ~free_unprotected ~alloc_raw ~dealloc_raw
    ~tagged ~destroy =
  let raw_live : (Addr.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let take_raw site size =
    let a = alloc_raw size in
    Hashtbl.replace raw_live a ();
    Hashtbl.replace ever_unprotected a ();
    incr unprotected_allocs;
    Shadow.Shadow_heap.trace_malloc machine site size a;
    a
  in
  let fallback site size =
    match tagged with
    | Some (tp, _) -> tp.Scheme.pool_alloc ~site size
    | None -> take_raw site size
  in
  let alloc ?(site = "<unknown>") size =
    Governor.on_alloc governor;
    match Governor.backend governor with
    | `Shadow when Governor.should_protect governor -> (
      match Retry.attempt machine (fun () -> try_alloc ~site size) with
      | Ok a ->
        Governor.record_success governor;
        a
      | Error e ->
        Governor.record_failure governor
          ~reason:("malloc:" ^ Fault_plan.error_label e);
        fallback site size)
    | `Tagged -> fallback site size
    | `Shadow (* sampled out *) | `Raw -> take_raw site size
  in
  let free ?(site = "<unknown>") a =
    match tagged with
    | Some (tp, holds) when holds a -> tp.Scheme.pool_free ~site a
    | Some _ | None ->
      if Hashtbl.mem raw_live a then begin
        Hashtbl.remove raw_live a;
        dealloc_raw a;
        Shadow.Shadow_heap.trace_free machine site a
      end
      else begin
        match
          Retry.attempt machine (fun () -> try_free_protected ~site a)
        with
        | Ok () -> Governor.record_success governor
        | Error e ->
          Governor.record_failure governor
            ~reason:("free:" ^ Fault_plan.error_label e);
          let obj = free_unprotected ~site a in
          Governor.record_unprotected_free governor;
          Hashtbl.replace ever_unprotected
            obj.Shadow.Object_registry.user_addr ()
      end
  in
  {
    Scheme.pool_alloc = alloc;
    pool_free = free;
    pool_destroy =
      (fun () ->
        Option.iter (fun (tp, _) -> tp.Scheme.pool_destroy ()) tagged;
        destroy ());
  }

let shadow_basic machine =
  let registry = Shadow.Object_registry.create () in
  let governor = Governor.create machine in
  let ever_unprotected = Hashtbl.create 64 in
  let unprotected_allocs = ref 0 in
  (* Arena pages get the same bounded retry as the protection calls; an
     arena the kernel still refuses has no fallback and raises. *)
  let page_source pages =
    Syscalls.ok_or_raise ~name:"Governed.shadow_basic"
      (Retry.attempt machine (fun () -> Syscalls.mmap machine ~pages))
  in
  let malloc_heap = Heap.Freelist_malloc.create ~page_source machine in
  let heap =
    Shadow.Shadow_heap.create ~registry
      ~allocator:(Heap.Freelist_malloc.as_allocator malloc_heap)
      machine
  in
  let handle =
    governed_ops ~machine ~governor ~ever_unprotected ~unprotected_allocs
      ~try_alloc:(fun ~site size -> Shadow.Shadow_heap.try_malloc heap ~site size)
      ~try_free_protected:(fun ~site a -> Shadow.Shadow_heap.try_free heap ~site a)
      ~free_unprotected:(fun ~site a ->
        Shadow.Shadow_heap.free_unprotected heap ~site a)
      ~alloc_raw:(fun size -> Heap.Freelist_malloc.alloc malloc_heap size)
      ~dealloc_raw:(fun a -> Heap.Freelist_malloc.dealloc malloc_heap a)
      ~tagged:None ~destroy:ignore
  in
  let scheme =
    Pool_scheme.build ~name:"governed-shadow-basic" machine ~pool:ignore
      ~wrap:(fun () -> handle)
      ~load:(Pool_scheme.guarded_load machine registry)
      ~store:(Pool_scheme.guarded_store machine registry)
      ~extra_memory_bytes:(fun () -> 0)
      ~guarantees_detection:true
      ~introspection:(fun () -> Scheme.No_introspection)
  in
  { scheme; governor; registry; unprotected_allocs; ever_unprotected;
    table = None }

(* The governed shadow pool, with the tag table as a second backend when
   [table] is given (the backend ladder).  Sub-pools share one governor,
   registry and recycler. *)
let governed_pool ~name ~config ~table machine =
  let registry = Shadow.Object_registry.create () in
  let recycler = Apa.Page_recycler.create () in
  let governor = Governor.create ~config machine in
  let ever_unprotected = Hashtbl.create 64 in
  let unprotected_allocs = ref 0 in
  let wrap pool =
    let alloc_raw size =
      let a = Shadow.Shadow_pool.alloc_raw pool size in
      (* The block may reuse granules of retired tagged chunks; drop
         their table entries so a legitimate raw access can never trip
         a stale tag.  Dangling tagged pointers into the range stop
         faulting — exactly the attributed coverage loss raw mode is. *)
      Option.iter (fun t -> Tagging.Tag_table.release t ~base:a ~size) table;
      a
    in
    governed_ops ~machine ~governor ~ever_unprotected ~unprotected_allocs
      ~try_alloc:(fun ~site size ->
        Shadow.Shadow_pool.try_alloc pool ~site size)
      ~try_free_protected:(fun ~site a ->
        Shadow.Shadow_pool.try_free pool ~site a)
      ~free_unprotected:(fun ~site a ->
        Shadow.Shadow_pool.free_unprotected pool ~site a)
      ~alloc_raw
      ~dealloc_raw:(Shadow.Shadow_pool.dealloc_raw pool)
      ~tagged:
        (Option.map
           (fun table ->
             Pool_scheme.tagged_pool machine table
               ~alloc_raw:(Shadow.Shadow_pool.alloc_raw pool)
               ~dealloc_raw:(Shadow.Shadow_pool.dealloc_raw pool)
               ~destroy:ignore)
           table)
      ~destroy:(fun () -> Shadow.Shadow_pool.destroy pool)
  in
  let load, store =
    match table with
    | Some table -> Pool_scheme.tag_checked machine table registry
    | None ->
      ( Pool_scheme.guarded_load machine registry,
        Pool_scheme.guarded_store machine registry )
  in
  let scheme =
    Pool_scheme.build ~name machine
      ~pool:(fun elem_size ->
        Shadow.Shadow_pool.create ?elem_size ~recycler ~registry machine)
      ~wrap ~load ~store
      ~extra_memory_bytes:(fun () ->
        match table with
        | Some table ->
          (Tagging.Tag_table.stats table).Tagging.Tag_table.table_bytes
        | None -> 0)
      ~guarantees_detection:false
      ~introspection:(fun _ -> Scheme.No_introspection)
  in
  { scheme; governor; registry; unprotected_allocs; ever_unprotected; table }

let shadow_pool machine =
  governed_pool ~name:"governed-shadow-pool" ~config:Governor.default_config
    ~table:None machine

(* The backend ladder: one machine, three detection backends, the
   governor choosing per-allocation which one guards the object.
   Shadow paging while the protection syscalls are healthy; the tag
   table — still a detecting backend, but one that needs no syscalls
   and no fresh VA — when they are not; raw passthrough as the last
   resort. *)
let backend_ladder ?config machine =
  let config =
    Option.value config
      ~default:{ Governor.default_config with ladder = Governor.backend_ladder }
  in
  let table = Tagging.Tag_table.create machine in
  governed_pool ~name:"governed-backend-ladder" ~config ~table:(Some table)
    machine
