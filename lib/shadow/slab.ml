open Vmm

(* Pre-aliased shadow slabs: one vectored [mremap_alias_slab] call
   creates [copies] contiguous aliases of a canonical page run, and the
   unconsumed ones are cached keyed by that run.  A freelist-driven
   allocator reuses the same canonical pages over and over, so churn
   workloads hit the cache on almost every malloc and alias cost
   amortizes to ~1 syscall per slab instead of one per allocation. *)

type t = {
  machine : Machine.t;
  copies : int;
  cache : (Addr.t * int, Addr.t list ref) Hashtbl.t;
  mutable slab_calls : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(copies = 16) machine =
  if copies <= 0 then invalid_arg "Slab.create: copies <= 0";
  { machine; copies; cache = Hashtbl.create 64; slab_calls = 0; hits = 0; misses = 0 }

let take t ~src ~pages =
  let key = (src, pages) in
  match Hashtbl.find_opt t.cache key with
  | Some ({ contents = alias :: rest } as cell) ->
    cell := rest;
    t.hits <- t.hits + 1;
    Ok alias
  | Some { contents = [] } | None ->
    t.misses <- t.misses + 1;
    (match Syscalls.mremap_alias_slab t.machine ~src ~pages ~copies:t.copies with
     | Error _ as e -> e
     | Ok base ->
       t.slab_calls <- t.slab_calls + 1;
       let stride = pages * Addr.page_size in
       let spare =
         List.init (t.copies - 1) (fun i -> base + ((i + 1) * stride))
       in
       Hashtbl.replace t.cache key (ref spare);
       Ok base)

let flush t ~unmap =
  (* Cached aliases were never handed out, so unmapping them is pure
     bookkeeping; contiguous spares from one slab coalesce into a single
     munmap.  A run whose unmap fails stays mapped and is never handed
     out: it leaks address space, not detection. *)
  let ranges =
    Hashtbl.fold
      (fun (_, pages) cell acc ->
        List.fold_left (fun acc base -> (base, pages) :: acc) acc !cell)
      t.cache []
  in
  Hashtbl.reset t.cache;
  List.fold_left
    (fun acc (base, pages) ->
      match unmap ~addr:base ~pages with
      | Ok () -> acc + pages
      | Error _ -> acc)
    0
    (Syscalls.coalesce_ranges ranges)

let cached_aliases t =
  Hashtbl.fold (fun _ cell acc -> acc + List.length !cell) t.cache 0

let slab_calls t = t.slab_calls
let hits t = t.hits
let misses t = t.misses
