open Vmm

(* A deliberately different allocator from Freelist_malloc: pure bump
   pointer, 8-byte size prefix, frees only counted (memory is reclaimed
   when the whole region is dropped).  Exists to demonstrate the paper's
   claim that the shadow-page wrapper is allocator-agnostic. *)

type t = {
  machine : Machine.t;
  region_pages : int;
  mutable regions : (Addr.t * int) list;
  mutable cursor : Addr.t; (* next free byte in head region; 0 = none *)
  mutable limit : Addr.t;
  mutable live_blocks : int;
  mutable live_bytes : int;
}

let prefix = 8

let create ?(region_pages = 256) machine =
  {
    machine;
    region_pages;
    regions = [];
    cursor = 0;
    limit = 0;
    live_blocks = 0;
    live_bytes = 0;
  }

let align16 n = (n + 15) land lnot 15

let alloc t size =
  if size <= 0 then invalid_arg "Bump_alloc.alloc: size <= 0";
  let need = align16 (prefix + size) in
  if t.cursor = 0 || t.cursor + need > t.limit then begin
    let pages = max t.region_pages (Addr.pages_spanning 0 need) in
    let base =
      Syscalls.ok_or_raise ~name:"Bump_alloc"
        (Syscalls.mmap t.machine ~pages)
    in
    t.regions <- (base, pages) :: t.regions;
    t.cursor <- base;
    t.limit <- base + (pages * Addr.page_size)
  end;
  let payload = t.cursor + prefix in
  Mmu.store t.machine t.cursor ~width:8 size;
  t.cursor <- t.cursor + need;
  t.live_blocks <- t.live_blocks + 1;
  t.live_bytes <- t.live_bytes + size;
  payload

let size_of t a = Mmu.load t.machine (a - prefix) ~width:8

let dealloc t a =
  let size = size_of t a in
  t.live_blocks <- t.live_blocks - 1;
  t.live_bytes <- t.live_bytes - size

let live_blocks t = t.live_blocks
let live_bytes t = t.live_bytes

let as_allocator t =
  {
    Allocator_intf.name = "bump-alloc";
    alloc = alloc t;
    dealloc = dealloc t;
    size_of = size_of t;
    live_blocks = (fun () -> live_blocks t);
    live_bytes = (fun () -> live_bytes t);
  }
