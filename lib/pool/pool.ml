open Vmm

type reclaim =
  | Recycle of Page_recycler.t
  | Unmap
  | Leak

type range = { base : Addr.t; pages : int }

type t = {
  machine : Machine.t;
  reclaim : reclaim;
  elem_size : int option;
  id : int;
  heap : Heap.Freelist_malloc.t;
  owned : range list ref; (* canonical ranges handed to [heap] *)
  mutable destroyed : bool;
}

let fresh_pages machine pages =
  Syscalls.ok_or_raise ~name:"Pool.alloc" (Syscalls.mmap machine ~pages)

let take_pages machine reclaim owned pages =
  let base =
    match reclaim with
    | Recycle recycler ->
      (match Page_recycler.take recycler ~pages with
       | Some base ->
         (* Fresh backing severs stale aliases and clears protections.
            If the kernel refuses it, the range goes back untouched (its
            stale protections still trap) and this pool maps new pages. *)
         (match Syscalls.mmap_fixed machine ~addr:base ~pages with
          | Ok () -> base
          | Error _ ->
            Page_recycler.untake recycler ~base ~pages;
            fresh_pages machine pages)
       | None -> fresh_pages machine pages)
    | Unmap | Leak -> fresh_pages machine pages
  in
  owned := { base; pages } :: !owned;
  base

let create ?(arena_pages = 16) ?elem_size ~reclaim machine =
  let owned = ref [] in
  let page_source pages = take_pages machine reclaim owned pages in
  let heap = Heap.Freelist_malloc.create ~arena_pages ~page_source machine in
  (* Numbered per machine: a machine belongs to one domain, so the ids in
     a trace do not depend on how the farm's domains interleave. *)
  machine.Machine.pools_created <- machine.Machine.pools_created + 1;
  let id = machine.Machine.pools_created in
  Telemetry.Sink.emit_always machine.Machine.trace (fun () ->
      Telemetry.Event.Pool_create { pool = id; elem_size });
  { machine; reclaim; elem_size; id; heap; owned; destroyed = false }

let check_usable t name =
  if t.destroyed then
    invalid_arg (Printf.sprintf "Pool.%s: pool already destroyed" name)

let alloc t size =
  check_usable t "alloc";
  Heap.Freelist_malloc.alloc t.heap size

let dealloc t a =
  check_usable t "dealloc";
  Heap.Freelist_malloc.dealloc t.heap a

let size_of t a = Heap.Freelist_malloc.size_of t.heap a

let destroy t =
  check_usable t "destroy";
  t.destroyed <- true;
  Telemetry.Sink.emit_always t.machine.Machine.trace (fun () ->
      Telemetry.Event.Pool_destroy { pool = t.id });
  let reclaim_range { base; pages } =
    match t.reclaim with
    | Recycle recycler -> Page_recycler.put recycler ~base ~pages
    | Unmap ->
      Syscalls.ok_or_raise ~name:"Pool.destroy"
        (Syscalls.munmap t.machine ~addr:base ~pages)
    | Leak -> ()
  in
  List.iter reclaim_range !(t.owned);
  t.owned := []

let is_destroyed t = t.destroyed
let live_blocks t = Heap.Freelist_malloc.live_blocks t.heap

let owned_pages t =
  List.fold_left (fun acc r -> acc + r.pages) 0 !(t.owned)

let elem_size t = t.elem_size

let as_allocator t =
  {
    Heap.Allocator_intf.name = "pool";
    alloc = alloc t;
    dealloc = dealloc t;
    size_of = size_of t;
    live_blocks = (fun () -> live_blocks t);
    live_bytes = (fun () -> Heap.Freelist_malloc.live_bytes t.heap);
  }
