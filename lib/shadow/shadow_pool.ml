open Vmm

type range_state =
  | Rs_live
  | Rs_freed

(* The shadow ranges this pool holds, with their page totals kept as
   running counts so the per-free reuse-policy check and the per-alloc
   live-page sample are O(1).  Every change to [table] goes through
   [set_range], [remove_range] or [reset_ranges], which keep the counts
   equal to a fold over it. *)
type ranges = {
  table : (Addr.t, int * range_state) Hashtbl.t; (* base -> pages, state *)
  mutable held_pages : int;
  mutable freed_pages : int;
  mutable visited : int; (* diagnostic: entries read by scans and queries *)
}

let freed_share pages = function Rs_freed -> pages | Rs_live -> 0

let uncount r base =
  match Hashtbl.find_opt r.table base with
  | Some (pages, state) ->
    r.held_pages <- r.held_pages - pages;
    r.freed_pages <- r.freed_pages - freed_share pages state
  | None -> ()

let set_range r base pages state =
  uncount r base;
  Hashtbl.replace r.table base (pages, state);
  r.held_pages <- r.held_pages + pages;
  r.freed_pages <- r.freed_pages + freed_share pages state

let remove_range r base =
  uncount r base;
  Hashtbl.remove r.table base

let reset_ranges r =
  Hashtbl.reset r.table;
  r.held_pages <- 0;
  r.freed_pages <- 0

(* A read of one entry on behalf of a scan or a membership query — what
   the [ranges_visited] diagnostic counts.  The point updates above are
   not visits: they are the O(1) bookkeeping of a single alloc or free. *)
let lookup r base =
  r.visited <- r.visited + 1;
  Hashtbl.find_opt r.table base

let fold_ranges f r acc =
  Hashtbl.fold
    (fun base entry acc ->
      r.visited <- r.visited + 1;
      f base entry acc)
    r.table acc

type t = {
  machine : Machine.t;
  registry : Object_registry.t;
  pool : Apa.Pool.t;
  heap : Shadow_heap.t;
  recycler : Apa.Page_recycler.t option;
  slab : Slab.t option;
  shadow_ranges : ranges;
  elided_live : (Addr.t, unit) Hashtbl.t; (* statically-safe blocks *)
  unmap : addr:Addr.t -> pages:int -> (unit, Fault_plan.error) result;
  mutable after_free_hook : (unit -> unit) option;
  mutable in_after_free_hook : bool;
  mutable destroyed : bool;
}

(* Pages per canonical small-object arena of the underlying pool. *)
let arena_pages = 16

let create ?elem_size ?(reuse_shadow_va = true) ?recycler ?slab ?unmap
    ~registry machine =
  let reclaim =
    match recycler with
    | Some r -> Apa.Pool.Recycle r
    | None -> Apa.Pool.Unmap
  in
  let pool = Apa.Pool.create ~arena_pages ?elem_size ~reclaim machine in
  let shadow_ranges =
    { table = Hashtbl.create 64; held_pages = 0; freed_pages = 0; visited = 0 }
  in
  let shadow_placer pages =
    match recycler with
    | Some r when reuse_shadow_va -> Apa.Page_recycler.take r ~pages
    | Some _ | None -> None
  in
  let shadow_unplace ~base ~pages =
    match recycler with
    | Some r when reuse_shadow_va -> Apa.Page_recycler.put r ~base ~pages
    | Some _ | None -> ()
  in
  let on_shadow_range ~base ~pages = set_range shadow_ranges base pages Rs_live in
  let shadow_alias =
    Option.map (fun s ~src ~pages -> Slab.take s ~src ~pages) slab
  in
  let heap =
    Shadow_heap.create ~shadow_placer ~shadow_unplace ~on_shadow_range
      ?shadow_alias ~registry
      ~allocator:(Apa.Pool.as_allocator pool)
      machine
  in
  let unmap =
    match unmap with
    | Some f -> f
    | None -> fun ~addr ~pages -> Syscalls.munmap machine ~addr ~pages
  in
  {
    machine;
    registry;
    pool;
    heap;
    recycler;
    slab;
    shadow_ranges;
    elided_live = Hashtbl.create 64;
    unmap;
    after_free_hook = None;
    in_after_free_hook = false;
    destroyed = false;
  }

let check_usable t name =
  if t.destroyed then
    invalid_arg (Printf.sprintf "Shadow_pool.%s: pool already destroyed" name)

let set_after_free_hook t f = t.after_free_hook <- Some f

(* The hook may itself reclaim (that is its purpose), but a reclamation
   must not re-enter the hook through the frees it performs. *)
let run_after_free_hook t =
  match t.after_free_hook with
  | Some f when not t.in_after_free_hook ->
    t.in_after_free_hook <- true;
    Fun.protect ~finally:(fun () -> t.in_after_free_hook <- false) f
  | Some _ | None -> ()

let alloc t ?site size =
  check_usable t "alloc";
  Shadow_heap.malloc t.heap ?site size

let try_alloc t ?site size =
  check_usable t "alloc";
  Shadow_heap.try_malloc t.heap ?site size

let mark_range_freed t (o : Object_registry.obj) =
  set_range t.shadow_ranges o.Object_registry.shadow_base
    o.Object_registry.pages Rs_freed

let free t ?site user =
  check_usable t "free";
  (* Look the object up first so we can flip its range state after the
     underlying free protects it. *)
  let obj = Object_registry.find_by_addr t.registry user in
  Shadow_heap.free t.heap ?site user;
  (match obj with Some o -> mark_range_freed t o | None -> ());
  run_after_free_hook t

let try_free t ?site user =
  check_usable t "free";
  let obj = Object_registry.find_by_addr t.registry user in
  match Shadow_heap.try_free t.heap ?site user with
  | Error _ as e -> e
  | Ok () ->
    (match obj with Some o -> mark_range_freed t o | None -> ());
    run_after_free_hook t;
    Ok ()

let free_unprotected t ?site user =
  check_usable t "free";
  let obj = Shadow_heap.free_unprotected t.heap ?site user in
  mark_range_freed t obj;
  run_after_free_hook t;
  obj

(* Epoch-mode free: validate + mark now, defer protection and canonical
   reuse.  The range is NOT marked Rs_freed yet — [reclaim_freed_shadow]
   must not recycle a quarantined range out from under its epoch. *)
let free_deferred t ?site user =
  check_usable t "free";
  Shadow_heap.free_deferred t.heap ?site user

(* The release half an epoch runs at retirement, once the range is
   protected: canonical block back to the pool, range into the Rs_freed
   set the reuse policy may reclaim. *)
let retire_object t (obj : Object_registry.obj) =
  Shadow_heap.release_canonical t.heap obj;
  mark_range_freed t obj;
  (* Epoch retirement is this object's real free completion, so the
     reclamation hook fires here too — a long-lived pool under an epoch
     scheme would otherwise never trigger its reuse policy. *)
  run_after_free_hook t

(* Raw pool access for fully degraded (pass-through) operation: the
   canonical block with no shadow alias at all. *)
let alloc_raw t size =
  check_usable t "alloc";
  let addr = Apa.Pool.alloc t.pool size in
  Stats.count_alloc_op t.machine.Machine.stats;
  addr

let dealloc_raw t addr =
  check_usable t "free";
  Apa.Pool.dealloc t.pool addr;
  Stats.count_free_op t.machine.Machine.stats

(* Statically-elided allocation: the analysis proved every use of this
   site's class Safe, so the object lives on its canonical page with no
   shadow alias — no mremap on alloc, no mprotect on free.  The block is
   remembered so [free_elided] can tell these objects apart from
   protected ones and so a double free of one still trips the shadow
   path (the second free falls through and the registry rejects it). *)
let alloc_elided t size =
  check_usable t "alloc";
  let addr = Apa.Pool.alloc t.pool size in
  Hashtbl.replace t.elided_live addr ();
  Stats.count_alloc_op t.machine.Machine.stats;
  addr

let free_elided t addr =
  check_usable t "free";
  if Hashtbl.mem t.elided_live addr then begin
    Hashtbl.remove t.elided_live addr;
    Apa.Pool.dealloc t.pool addr;
    Stats.count_free_op t.machine.Machine.stats;
    true
  end
  else false

let destroy t =
  check_usable t "destroy";
  t.destroyed <- true;
  (* Flush before the pool recycles canonical VA: recycled pages get
     fresh physical backing, which would invalidate cached aliases. *)
  (match t.slab with
   | Some s -> ignore (Slab.flush s ~unmap:t.unmap)
   | None -> ());
  (* Batched teardown, same shape as [reclaim_ranges]: fuse every
     shadow range and pay one recycler insertion or one [unmap] per
     merged run instead of one syscall per object range.  Destruction
     is terminal, so an unmap failure only leaks the run's pages (kept
     mapped, never reused — the registry entries are dropped either
     way). *)
  let ranges =
    fold_ranges (fun base (pages, _state) acc -> (base, pages) :: acc)
      t.shadow_ranges []
    |> List.sort compare
  in
  (match t.recycler with
   | Some r ->
     List.iter
       (fun (base, pages) -> Apa.Page_recycler.put r ~base ~pages)
       (Syscalls.coalesce_ranges ranges)
   | None ->
     List.iter
       (fun (base, pages) -> ignore (t.unmap ~addr:base ~pages))
       (Syscalls.coalesce_ranges ranges));
  List.iter
    (fun (base, pages) -> Object_registry.forget_range t.registry ~base ~pages)
    ranges;
  reset_ranges t.shadow_ranges;
  Hashtbl.reset t.elided_live;
  Apa.Pool.destroy t.pool

let freed_ranges t =
  fold_ranges
    (fun base (pages, state) acc ->
      match state with
      | Rs_freed -> (base, pages) :: acc
      | Rs_live -> acc)
    t.shadow_ranges []
  |> List.sort compare

(* Release a chosen subset of the freed ranges, batching the release
   syscalls: the ranges are fused with [Syscalls.coalesce_ranges] first,
   so adjacent objects freed over time cost one [munmap] (or one merged
   recycler run), mirroring what PR 7's epoch did for [mprotect].  A
   merged run whose unmap fails is kept whole — its member ranges stay
   protected and reclaimable later — rather than half-released. *)
let reclaim_ranges t ranges =
  check_usable t "reclaim_ranges";
  (* Only ranges currently in the freed set are eligible; anything else
     (live, quarantined, already reclaimed) is skipped, and a range
     listed twice is released and counted once, so callers may pass
     stale lists safely. *)
  let eligible =
    List.filter
      (fun (base, pages) ->
        match lookup t.shadow_ranges base with
        | Some (p, Rs_freed) -> p = pages
        | Some (_, Rs_live) | None -> false)
      ranges
    |> List.sort_uniq compare
  in
  let merged = Syscalls.coalesce_ranges eligible in
  let released_runs =
    match t.recycler with
    | Some r ->
      (* Recycling is pure bookkeeping — no syscall can fail — and the
         free list receives the merged runs, not the per-object ones. *)
      List.iter
        (fun (base, pages) -> Apa.Page_recycler.put r ~base ~pages)
        merged;
      merged
    | None ->
      List.filter
        (fun (base, pages) ->
          match t.unmap ~addr:base ~pages with
          | Ok () -> true
          | Error _ -> false)
        merged
  in
  (* One merge over the two base-sorted lists: each eligible range lies
     inside exactly one merged run, released or not, and a run is passed
     over once a range starts beyond its end. *)
  let rec release acc ranges runs =
    match (ranges, runs) with
    | [], _ | _, [] -> acc
    | (base, pages) :: rest, (rb, rp) :: later ->
      let run_end = rb + Addr.of_page rp in
      if base >= run_end then release acc ranges later
      else if base >= rb && base + Addr.of_page pages <= run_end then begin
        Object_registry.forget_range t.registry ~base ~pages;
        remove_range t.shadow_ranges base;
        release (acc + pages) rest runs
      end
      else release acc rest runs
  in
  release 0 eligible released_runs

let reclaim_freed_shadow t =
  check_usable t "reclaim_freed_shadow";
  reclaim_ranges t (freed_ranges t)

let machine t = t.machine
let registry t = t.registry
let is_destroyed t = t.destroyed

let shadow_pages_live t = t.shadow_ranges.held_pages
let freed_shadow_pages t = t.shadow_ranges.freed_pages
let ranges_visited t = t.shadow_ranges.visited

let is_freed t base =
  match lookup t.shadow_ranges base with
  | Some (_, Rs_freed) -> true
  | Some (_, Rs_live) | None -> false
