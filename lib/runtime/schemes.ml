open Vmm
module Metrics = Telemetry.Metrics

type pa_config = { dummy_syscalls : bool }

let default_pa_config = { dummy_syscalls = false }

type pool_config = { reuse_shadow_va : bool }

let default_pool_config = { reuse_shadow_va = true }

type static_config = { elide : string -> bool }

type epoch_config = { max_frees : int }

let default_epoch_config = { max_frees = 64 }

type epoch_stats = {
  epochs_retired : int;
  epoch_retired_frees : int;
  epoch_pending_frees : int;
  coalesced_protects : int;
  epoch_split_retries : int;
  epoch_failed_protects : int;
  backstop_hits : int;
  slab_calls : int;
  slab_hits : int;
  slab_misses : int;
}

type info =
  | Opaque
  | Shadow_pool of {
      global : Shadow.Shadow_pool.t;
      recycler : Apa.Page_recycler.t;
    }
  | Shadow_pool_epoch of {
      global : Shadow.Shadow_pool.t;
      recycler : Apa.Page_recycler.t;
      epoch : unit -> epoch_stats;
      drain : unit -> unit;
    }
  | Tagged of {
      table : Tagging.Tag_table.t;
      recycler : Apa.Page_recycler.t;
    }

(* The private carrier on the scheme record; [introspect] is the only
   reader, so the constructor never leaks. *)
type Scheme.introspection += Info of info

let introspect (scheme : Scheme.t) =
  match scheme.Scheme.introspection with
  | Info i -> i
  | _ -> Opaque

(* A scheme's own counters live in its machine's metrics registry, next
   to the [vmm.*] ones, so exporters and farm merges see them with no
   extra plumbing.  Handles are taken once, when the scheme is built:
   a count on the hot path is one field update. *)
let counter machine name =
  Metrics.counter (Stats.registry machine.Machine.stats) name

(* The handle over a plain block allocator: each op counted and traced,
   nothing protected — what native and pa mount. *)
let plain machine ~alloc ~dealloc ~destroy =
  {
    Scheme.pool_alloc =
      (fun ?(site = "<unknown>") size ->
        let a = alloc size in
        Stats.count_alloc_op machine.Machine.stats;
        Shadow.Shadow_heap.trace_malloc machine site size a;
        a);
    pool_free =
      (fun ?(site = "<unknown>") a ->
        dealloc a;
        Stats.count_free_op machine.Machine.stats;
        Shadow.Shadow_heap.trace_free machine site a);
    pool_destroy = destroy;
  }

let native machine =
  let heap = Heap.Freelist_malloc.create machine in
  Pool_scheme.build ~name:"native" machine ~pool:ignore
    ~wrap:(fun () ->
      plain machine
        ~alloc:(Heap.Freelist_malloc.alloc heap)
        ~dealloc:(Heap.Freelist_malloc.dealloc heap)
        ~destroy:ignore)
    ~load:(Mmu.load machine) ~store:(Mmu.store machine)
    ~extra_memory_bytes:(fun () -> 0)
    ~guarantees_detection:false
    ~introspection:(fun () -> Scheme.No_introspection)

let pa ?(config = default_pa_config) machine =
  let { dummy_syscalls } = config in
  let recycler = Apa.Page_recycler.create () in
  let dummy () = if dummy_syscalls then Kernel.dummy_syscall machine in
  Pool_scheme.build machine
    ~name:(if dummy_syscalls then "pa+dummy-syscalls" else "pa")
    ~pool:(fun elem_size ->
      Apa.Pool.create ?elem_size ~reclaim:(Apa.Pool.Recycle recycler) machine)
    ~wrap:(fun pool ->
      plain machine
        ~alloc:(fun size ->
          dummy ();
          Apa.Pool.alloc pool size)
        ~dealloc:(fun a ->
          dummy ();
          Apa.Pool.dealloc pool a)
        ~destroy:(fun () -> Apa.Pool.destroy pool))
    ~load:(Mmu.load machine) ~store:(Mmu.store machine)
    ~extra_memory_bytes:(fun () -> 0)
    ~guarantees_detection:false
    ~introspection:(fun _ -> Scheme.No_introspection)

(* The batched reclaim-path unmap every shadow pool gets: coalesced by
   [Shadow_pool.reclaim_ranges], retried here — the same injection shape
   as the epoch's [protect]. *)
let retrying_unmap machine ~addr ~pages =
  Retry.attempt machine (fun () -> Syscalls.munmap machine ~addr ~pages)

let shadow_basic machine =
  let registry = Shadow.Object_registry.create () in
  let malloc_heap = Heap.Freelist_malloc.create machine in
  let heap =
    Shadow.Shadow_heap.create ~registry
      ~allocator:(Heap.Freelist_malloc.as_allocator malloc_heap)
      machine
  in
  Pool_scheme.build ~name:"shadow-basic" machine ~pool:ignore
    ~wrap:(fun () ->
      {
        Scheme.pool_alloc =
          (fun ?site size -> Shadow.Shadow_heap.malloc heap ?site size);
        pool_free = (fun ?site a -> Shadow.Shadow_heap.free heap ?site a);
        pool_destroy = ignore;
      })
    ~load:(Pool_scheme.guarded_load machine registry)
    ~store:(Pool_scheme.guarded_store machine registry)
    ~extra_memory_bytes:(fun () -> 0)
    ~guarantees_detection:true
    ~introspection:(fun () -> Scheme.No_introspection)

(* Every shadow-pool scheme, built from its three varying inputs:
   - [wrap], the wrapper around one pool's alloc/free/destroy (eager,
     site-elided or epoch-quarantined).  It makes the pool through the
     [create] it is given, passing the pool's private slab if it uses
     one, and returns the pool with its handle;
   - [recycler], the page free list shared by the scheme's pools, with
     the pool config saying whether new shadow ranges reuse its VA; or
     none, so destroy returns a pool's VA to the OS;
   - [check], at most one software check before each load and store
     (the spatial bounds check or the epoch backstop).
   Detection is the registry's: one per scheme, shared by its pools.
   [info] is what {!introspect} reports, given the global pool. *)
let shadow ~name ~wrap ~recycler ~check ~info machine =
  let registry = Shadow.Object_registry.create () in
  let { reuse_shadow_va } =
    Option.fold recycler ~none:default_pool_config ~some:snd
  in
  let create elem_size slab =
    Shadow.Shadow_pool.create ?elem_size ~reuse_shadow_va
      ?recycler:(Option.map fst recycler) ?slab
      ~unmap:(retrying_unmap machine) ~registry machine
  in
  let load, store =
    match check with
    | None ->
      ( Pool_scheme.guarded_load machine registry,
        Pool_scheme.guarded_store machine registry )
    | Some check ->
      ( (fun addr ~width ->
          check registry Perm.Read addr width;
          Pool_scheme.guarded_load machine registry addr ~width),
        fun addr ~width v ->
          check registry Perm.Write addr width;
          Pool_scheme.guarded_store machine registry addr ~width v )
  in
  Pool_scheme.build ~name machine
    ~pool:(fun elem_size -> wrap (create elem_size))
    ~wrap:snd ~load ~store
    ~extra_memory_bytes:(fun () -> 0)
    ~guarantees_detection:true
    ~introspection:(fun (global, _) -> Info (info global))

(* The eager wrapper: alloc aliases, free protects, destroy recycles —
   the paper's scheme as it stands. *)
let eager create =
  let pool = create None in
  ( pool,
    {
      Scheme.pool_alloc =
        (fun ?site size -> Shadow.Shadow_pool.alloc pool ?site size);
      pool_free = (fun ?site a -> Shadow.Shadow_pool.free pool ?site a);
      pool_destroy = (fun () -> Shadow.Shadow_pool.destroy pool);
    } )

let shadow_pool ?(config = default_pool_config) machine =
  let recycler = Apa.Page_recycler.create () in
  shadow ~name:"shadow-pool" ~wrap:eager
    ~recycler:(Some (recycler, config))
    ~check:None
    ~info:(fun global -> Shadow_pool { global; recycler })
    machine

(* Shadow-pool plus per-access software bounds checks: a spatial error
   that stays within the object's shadow page is invisible to the MMU
   (the alias covers the whole physical frame), so the combined checker
   validates the offset against the object registry before letting the
   access through — the paper's future-work "comprehensive safety
   checking tool" built from its two complementary halves.  A check
   costs 6 instructions, the few-percent overhead of the authors'
   companion spatial checker. *)
let bounds_check_cost = 6

let shadow_pool_spatial machine =
  let recycler = Apa.Page_recycler.create () in
  let check registry access addr width =
    Stats.count_instructions machine.Machine.stats bounds_check_cost;
    match Shadow.Object_registry.find_by_addr registry addr with
    | Some obj ->
      let start = obj.Shadow.Object_registry.user_addr in
      if addr < start || addr + width > start + obj.Shadow.Object_registry.size
      then
        raise
          (Shadow.Report.Violation
             (Shadow.Detector.report (Shadow.Report.Out_of_bounds access) addr
                obj))
    | None -> ()
  in
  shadow ~name:"shadow-pool+bounds" ~wrap:eager
    ~recycler:(Some (recycler, default_pool_config))
    ~check:(Some check)
    ~info:(fun global -> Shadow_pool { global; recycler })
    machine

(* The paper's "log in production" variant: a violation is reported to
   the caller's sink instead of tearing the worker down.  Recovery
   mirrors what a SEGV handler can actually do — lift the protection on
   the faulting page and restart the instruction — so a recovered read
   returns the (stale) bytes still sitting on the shared physical page.
   Violations raised by software checks (spatial bounds, free-path
   registry checks) have nothing to unprotect: the access or free is
   simply dropped, with loads yielding 0. *)
let recoverable ?(on_report = fun (_ : Shadow.Report.t) -> ())
    (base : Scheme.t) =
  let machine = base.Scheme.machine in
  let recovered_loads = counter machine "recover.loads" in
  let recovered_stores = counter machine "recover.stores" in
  let recovered_frees = counter machine "recover.frees" in
  let pages_unprotected = counter machine "recover.pages_unprotected" in
  (* True when a retry of the faulting access can now succeed.  A page
     the kernel refuses to unprotect is handled like a wild access. *)
  let unprotect_fault fault_addr =
    match Kernel.page_perm machine fault_addr with
    | Some Perm.No_access -> (
      match
        Syscalls.mprotect machine ~addr:(Addr.page_base fault_addr) ~pages:1
          Perm.Read_write
      with
      | Ok () ->
        Metrics.incr pages_unprotected;
        true
      | Error _ -> false)
    | Some _ -> true (* software check fired; page was never protected *)
    | None -> false (* wild access: nothing is mapped there *)
  in
  let load addr ~width =
    try base.Scheme.load addr ~width
    with Shadow.Report.Violation r ->
      on_report r;
      Metrics.incr recovered_loads;
      if unprotect_fault r.Shadow.Report.fault_addr then
        (* A software re-raise (e.g. the spatial bounds check) fires
           again on retry; it was already reported, so drop it. *)
        try base.Scheme.load addr ~width
        with Shadow.Report.Violation _ -> 0
      else 0
  in
  let store addr ~width v =
    try base.Scheme.store addr ~width v
    with Shadow.Report.Violation r ->
      on_report r;
      Metrics.incr recovered_stores;
      if unprotect_fault r.Shadow.Report.fault_addr then (
        try base.Scheme.store addr ~width v
        with Shadow.Report.Violation _ -> ())
  in
  (* A trapping free (double or invalid) leaves the heap untouched, so
     recovery is simply to skip it. *)
  let wrap_free free ?site a =
    try free ?site a
    with Shadow.Report.Violation r ->
      on_report r;
      Metrics.incr recovered_frees
  in
  let wrap_handle (h : Scheme.pool_handle) =
    { h with Scheme.pool_free = wrap_free h.Scheme.pool_free }
  in
  (* [introspection] stays the base's: the wrapper adds no internals. *)
  {
    base with
    Scheme.name = base.Scheme.name ^ "+recover";
    load;
    store;
    free = wrap_free base.Scheme.free;
    pool_create =
      (fun ?elem_size () -> wrap_handle (base.Scheme.pool_create ?elem_size ()));
  }

(* Shadow-pool with a per-malloc-site protection policy from the static
   analysis: sites whose every use is provably Safe take the canonical
   allocation path (no shadow alias, no mremap/mprotect), everything
   else — including position-less sites the policy cannot vouch for —
   keeps the full scheme, so detection at May/Must sites is unchanged. *)
let shadow_pool_static ~config machine =
  let { elide } = config in
  let recycler = Apa.Page_recycler.create () in
  let elided_allocs = counter machine "elide.allocs" in
  let elided_frees = counter machine "elide.frees" in
  let protected_allocs = counter machine "elide.protected_allocs" in
  let protected_frees = counter machine "elide.protected_frees" in
  let wrap create =
    let pool, eager = eager create in
    ( pool,
      {
        eager with
        Scheme.pool_alloc =
          (fun ?(site = "<unknown>") size ->
            if elide site then begin
              let a = Shadow.Shadow_pool.alloc_elided pool size in
              Metrics.incr elided_allocs;
              Shadow.Shadow_heap.trace_malloc machine site size a;
              a
            end
            else begin
              Metrics.incr protected_allocs;
              eager.Scheme.pool_alloc ~site size
            end);
        pool_free =
          (fun ?site a ->
            if Shadow.Shadow_pool.free_elided pool a then begin
              Metrics.incr elided_frees;
              Shadow.Shadow_heap.trace_free machine
                (Option.value site ~default:"<unknown>")
                a
            end
            else begin
              Metrics.incr protected_frees;
              eager.Scheme.pool_free ?site a
            end);
      } )
  in
  shadow ~name:"shadow-pool+static" ~wrap
    ~recycler:(Some (recycler, default_pool_config))
    ~check:None
    ~info:(fun global -> Shadow_pool { global; recycler })
    machine

(* Shadow-pool for statically inferred pool scopes (Minic.Poolify):
   every pool_create is one inferred pool, and its pool_destroy —
   placed by the analysis at the tightest non-escaping scope — releases
   the pool's entire VA footprint back to the OS.  No page recycler on
   purpose: recycling keeps ranges mapped for reuse, which is the right
   trade for the steady-state schemes but hides exactly the signal this
   scheme exists to show, that inferred scoped pools bound peak shadow
   VA (destroy issues real coalesced munmaps, counted in
   [inferred.unmapped_pages]).
   Detection is byte-for-byte [shadow_pool]'s: same registry, same
   guarded accesses, same per-object shadow protection.  A destroyed
   pool leaves [live], so the peak update on each alloc walks only the
   pools that still hold pages. *)
let shadow_pool_inferred machine =
  let created = counter machine "inferred.pools_created" in
  let destroyed = counter machine "inferred.pools_destroyed" in
  let unmapped = counter machine "inferred.unmapped_pages" in
  let peak =
    Metrics.gauge
      (Stats.registry machine.Machine.stats)
      "inferred.peak_shadow_pages"
  in
  let live = ref [] in
  let live_pages () =
    List.fold_left
      (fun acc p -> acc + Shadow.Shadow_pool.shadow_pages_live p)
      0 !live
  in
  let wrap create =
    let pool, eager = eager create in
    (* The first pool wrapped is the global one, which is not an
       inferred scope; it is never destroyed, so [live] is non-empty
       from then on. *)
    if !live <> [] then Metrics.incr created;
    live := pool :: !live;
    ( pool,
      {
        eager with
        Scheme.pool_alloc =
          (fun ?site size ->
            let a = eager.Scheme.pool_alloc ?site size in
            let pages = float_of_int (live_pages ()) in
            if pages > Metrics.gauge_value peak then
              Metrics.set_gauge peak pages;
            a);
        pool_destroy =
          (fun () ->
            if not (Shadow.Shadow_pool.is_destroyed pool) then begin
              Metrics.incr
                ~by:(Shadow.Shadow_pool.shadow_pages_live pool)
                unmapped;
              Metrics.incr destroyed;
              live := List.filter (( != ) pool) !live;
              eager.Scheme.pool_destroy ()
            end);
      } )
  in
  shadow ~name:"shadow-pool+inferred" ~wrap ~recycler:None ~check:None
    ~info:(fun _ -> Opaque)
    machine

let no_epoch_stats =
  {
    epochs_retired = 0;
    epoch_retired_frees = 0;
    epoch_pending_frees = 0;
    coalesced_protects = 0;
    epoch_split_retries = 0;
    epoch_failed_protects = 0;
    backstop_hits = 0;
    slab_calls = 0;
    slab_hits = 0;
    slab_misses = 0;
  }

let add_epoch_stats acc (e, s) =
  let open Shadow in
  {
    acc with
    epochs_retired = acc.epochs_retired + Epoch.retirements e;
    epoch_retired_frees = acc.epoch_retired_frees + Epoch.retired_frees e;
    epoch_pending_frees = acc.epoch_pending_frees + Epoch.pending_frees e;
    coalesced_protects = acc.coalesced_protects + Epoch.protect_calls e;
    epoch_split_retries = acc.epoch_split_retries + Epoch.split_retries e;
    epoch_failed_protects = acc.epoch_failed_protects + Epoch.failed_protects e;
    slab_calls = acc.slab_calls + Slab.slab_calls s;
    slab_hits = acc.slab_hits + Slab.hits s;
    slab_misses = acc.slab_misses + Slab.misses s;
  }

(* Epoch-batched shadow-pool: frees are quarantined per pool and
   retired with coalesced mprotects; shadow aliases come from slab
   pre-aliasing.  Detection inside the quarantine window is carried by
   a software backstop (the epoch's quarantine table, consulted before
   every access); after retirement the MMU path is exactly
   [shadow_pool]'s.  The batched protect goes through [Retry], and a
   run that still fails is split per object by the epoch — protection
   is never silently dropped.  A destroyed pool's counters fold into
   [retired] and its (epoch, slab) leaves [units], so the backstop
   walks live pools only.  The backstop costs 2 instructions per
   access, charged only while an epoch holds pending frees. *)
let backstop_check_cost = 2

let shadow_pool_epoch ?(config = default_epoch_config) machine =
  let { max_frees } = config in
  let recycler = Apa.Page_recycler.create () in
  let backstop_hits = ref 0 in
  let units : (Shadow.Epoch.t * Shadow.Slab.t) list ref = ref [] in
  let retired = ref no_epoch_stats in
  let protect ~addr ~pages =
    Retry.attempt machine (fun () ->
        Syscalls.mprotect machine ~addr ~pages Perm.No_access)
  in
  let wrap create =
    let slab = Shadow.Slab.create machine in
    let epoch = Shadow.Epoch.create ~max_frees ~protect () in
    let unit = (epoch, slab) in
    units := unit :: !units;
    (* The slab supplies the shadow VA; canonical pages still recycle. *)
    let pool = create (Some slab) in
    ( pool,
      {
        Scheme.pool_alloc =
          (fun ?site size ->
            Syscalls.ok_or_raise ~name:"Schemes.shadow_pool_epoch.alloc"
              (Retry.attempt machine (fun () ->
                   Shadow.Shadow_pool.try_alloc pool ?site size)));
        pool_free =
          (fun ?site a ->
            let obj = Shadow.Shadow_pool.free_deferred pool ?site a in
            Shadow.Epoch.enqueue epoch obj ~release:(fun () ->
                Shadow.Shadow_pool.retire_object pool obj);
            if Shadow.Epoch.should_retire epoch then Shadow.Epoch.retire epoch);
        pool_destroy =
          (fun () ->
            (* Retire, never abandon: recycling is VA bookkeeping only, so
               an abandoned quarantine would leave in-window freed pages
               read-write after the backstop stops watching them — weaker
               than the eager scheme's post-destroy state. *)
            Shadow.Epoch.retire epoch;
            Shadow.Shadow_pool.destroy pool;
            retired := add_epoch_stats !retired unit;
            units := List.filter (( != ) unit) !units);
      } )
  in
  (* The quarantine-window backstop: while any epoch holds pending
     frees, an access to a quarantined page is a use-after-free the MMU
     cannot see (the page is still read-write), so it is raised in
     software with the same diagnostics the trap handler would build. *)
  let backstop _registry access addr _width =
    List.iter
      (fun ((epoch : Shadow.Epoch.t), _) ->
        if Shadow.Epoch.pending_frees epoch > 0 then begin
          Stats.count_instructions machine.Machine.stats backstop_check_cost;
          match Shadow.Epoch.quarantined_obj epoch addr with
          | Some obj ->
            incr backstop_hits;
            let r =
              Shadow.Detector.report (Shadow.Report.Use_after_free access)
                addr obj
            in
            Shadow.Shadow_heap.trace_violation machine r;
            raise (Shadow.Report.Violation r)
          | None -> ()
        end)
      !units
  in
  let epoch () =
    List.fold_left add_epoch_stats
      { !retired with backstop_hits = !backstop_hits }
      !units
  in
  let drain () = List.iter (fun (e, _) -> Shadow.Epoch.retire e) !units in
  shadow ~name:"shadow-pool+epoch" ~wrap
    ~recycler:(Some (recycler, default_pool_config))
    ~check:(Some backstop)
    ~info:(fun global -> Shadow_pool_epoch { global; recycler; epoch; drain })
    machine

(* The pointer-tagging backend (xTag/LightDE): a generation tag in the
   pointer's high bits, checked in software against a per-granule
   generation table on every access.  No shadow aliasing and no
   protection syscalls — memory and VA recycle immediately — at the
   price of a few instructions per access and a bounded wraparound
   window, every pass through which the table counts for attribution.
   Allocator bookkeeping (headers, free-list links) goes through the
   MMU directly and is never tag-checked, exactly as the shadow schemes
   exempt it from guarded access.  The registry stays empty: a trap on
   an address the table never saw is a wild access. *)
let tagged machine =
  let table = Tagging.Tag_table.create machine in
  let recycler = Apa.Page_recycler.create () in
  let stats = machine.Machine.stats in
  let wrap pool =
    fst
      (Pool_scheme.tagged_pool machine table
         ~alloc_raw:(fun size ->
           let a = Apa.Pool.alloc pool size in
           Stats.count_alloc_op stats;
           a)
         ~dealloc_raw:(fun a ->
           Apa.Pool.dealloc pool a;
           Stats.count_free_op stats)
         ~destroy:(fun () -> Apa.Pool.destroy pool))
  in
  let load, store =
    Pool_scheme.tag_checked machine table (Shadow.Object_registry.create ())
  in
  Pool_scheme.build ~name:"tagged" machine
    ~pool:(fun elem_size ->
      Apa.Pool.create ?elem_size ~reclaim:(Apa.Pool.Recycle recycler) machine)
    ~wrap ~load ~store
    ~extra_memory_bytes:(fun () ->
      (Tagging.Tag_table.stats table).Tagging.Tag_table.table_bytes)
    ~guarantees_detection:true
    ~introspection:(fun _ -> Info (Tagged { table; recycler }))
