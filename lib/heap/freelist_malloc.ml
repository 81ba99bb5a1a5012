open Vmm

exception Heap_corruption of string

let header_bytes = 16
let word = 8

(* Status word layout: high bits a magic constant, low bit = allocated. *)
let magic = 0xA110C000
let status_allocated = magic lor 1
let status_free = magic

let size_classes =
  [| 16; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536; 2048 |]

let max_small = size_classes.(Array.length size_classes - 1)

type arena = { base : Addr.t; pages : int; mutable bump : int }

type t = {
  machine : Machine.t;
  page_source : int -> Addr.t;
  arena_pages : int;
  mutable arenas : arena list; (* head is the arena currently carved *)
  free_heads : Addr.t array;   (* 0 = empty, per size class *)
  large_free : (int, Addr.t list ref) Hashtbl.t; (* page count -> bases *)
  mutable live_blocks : int;
  mutable live_bytes : int;
  mutable wasted_slack : int;
}

let create ?(arena_pages = 64) ?page_source machine =
  let page_source =
    match page_source with
    | Some f -> f
    | None ->
      fun pages ->
        Syscalls.ok_or_raise ~name:"Freelist_malloc"
          (Syscalls.mmap machine ~pages)
  in
  {
    machine;
    page_source;
    arena_pages;
    arenas = [];
    free_heads = Array.make (Array.length size_classes) 0;
    large_free = Hashtbl.create 16;
    live_blocks = 0;
    live_bytes = 0;
    wasted_slack = 0;
  }

let class_index size =
  let rec find i =
    if i >= Array.length size_classes then
      invalid_arg "Freelist_malloc.class_index: size too large"
    else if size <= size_classes.(i) then i
    else find (i + 1)
  in
  find 0

(* Header accessors.  These are normal user-level memory operations: the
   allocator's bookkeeping work is part of the program's cost. *)
let read_size t a = Mmu.load t.machine (a - 16) ~width:word
let write_size t a v = Mmu.store t.machine (a - 16) ~width:word v
let read_status t a = Mmu.load t.machine (a - 8) ~width:word
let write_status t a v = Mmu.store t.machine (a - 8) ~width:word v

(* Free-list links live in the first payload word of free blocks. *)
let read_link t a = Mmu.load t.machine a ~width:word
let write_link t a v = Mmu.store t.machine a ~width:word v

let carve t block_bytes =
  let fits arena = arena.bump + block_bytes <= arena.pages * Addr.page_size in
  let arena =
    match t.arenas with
    | arena :: _ when fits arena -> arena
    | rest ->
      (match rest with
       | arena :: _ ->
         t.wasted_slack <-
           t.wasted_slack + ((arena.pages * Addr.page_size) - arena.bump)
       | [] -> ());
      let pages = max t.arena_pages (Addr.pages_spanning 0 block_bytes) in
      let base = t.page_source pages in
      let arena = { base; pages; bump = 0 } in
      t.arenas <- arena :: t.arenas;
      arena
  in
  let a = arena.base + arena.bump + header_bytes in
  arena.bump <- arena.bump + block_bytes;
  a

let alloc_small t idx =
  let payload =
    let head = t.free_heads.(idx) in
    if head <> 0 then begin
      t.free_heads.(idx) <- read_link t head;
      head
    end
    else carve t (header_bytes + size_classes.(idx))
  in
  write_size t payload size_classes.(idx);
  write_status t payload status_allocated;
  payload

let alloc_large t size =
  let pages = Addr.pages_spanning 0 (header_bytes + size) in
  let base =
    match Hashtbl.find_opt t.large_free pages with
    | Some ({ contents = base :: rest } as cell) ->
      cell := rest;
      base
    | Some { contents = [] } | None -> t.page_source pages
  in
  let payload = base + header_bytes in
  write_size t payload ((pages * Addr.page_size) - header_bytes);
  write_status t payload status_allocated;
  payload

let alloc t size =
  if size <= 0 then invalid_arg "Freelist_malloc.alloc: size <= 0";
  let payload =
    if size <= max_small then alloc_small t (class_index size)
    else alloc_large t size
  in
  t.live_blocks <- t.live_blocks + 1;
  t.live_bytes <- t.live_bytes + size;
  payload

let checked_status t a =
  let status = read_status t a in
  if status land lnot 1 <> magic then
    raise
      (Heap_corruption
         (Printf.sprintf "bad block magic at 0x%x (status 0x%x)" a status));
  status

let dealloc t a =
  let status = checked_status t a in
  if status <> status_allocated then
    raise (Heap_corruption (Printf.sprintf "double free of block at 0x%x" a));
  let size = read_size t a in
  write_status t a status_free;
  t.live_blocks <- t.live_blocks - 1;
  t.live_bytes <- t.live_bytes - size;
  if size <= max_small then begin
    let idx = class_index size in
    write_link t a t.free_heads.(idx);
    t.free_heads.(idx) <- a
  end
  else begin
    let pages = Addr.pages_spanning 0 (header_bytes + size) in
    let cell =
      match Hashtbl.find_opt t.large_free pages with
      | Some cell -> cell
      | None ->
        let cell = ref [] in
        Hashtbl.replace t.large_free pages cell;
        cell
    in
    cell := (a - header_bytes) :: !cell
  end

let size_of t a =
  let status = checked_status t a in
  if status <> status_allocated then
    raise (Heap_corruption (Printf.sprintf "size_of freed block at 0x%x" a));
  read_size t a

let is_live t a =
  match Mmu.load_exempt t.machine (a - 8) ~width:word with
  | status -> status = status_allocated
  | exception Fault.Trap _ -> false

let live_blocks t = t.live_blocks
let live_bytes t = t.live_bytes

let check t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_arena arena =
    let rec walk off =
      if off >= arena.bump then Ok ()
      else begin
        let payload = arena.base + off + header_bytes in
        let status = Mmu.load_exempt t.machine (payload - 8) ~width:word in
        if status land lnot 1 <> magic then
          fail "arena 0x%x: bad magic at offset %d" arena.base off
        else
          let size = Mmu.load_exempt t.machine (payload - 16) ~width:word in
          if size <= 0 || size > max_small then
            fail "arena 0x%x: bad size %d at offset %d" arena.base size off
          else walk (off + header_bytes + size)
      end
    in
    walk 0
  in
  let rec check_all = function
    | [] -> Ok ()
    | arena :: rest ->
      (match check_arena arena with
       | Ok () -> check_all rest
       | Error _ as e -> e)
  in
  check_all t.arenas

let as_allocator t =
  {
    Allocator_intf.name = "freelist-malloc";
    alloc = alloc t;
    dealloc = dealloc t;
    size_of = size_of t;
    live_blocks = (fun () -> live_blocks t);
    live_bytes = (fun () -> live_bytes t);
  }
