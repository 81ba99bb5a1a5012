(* A two-level radix table: a growable directory of fixed-size chunks of
   packed entries ({!Pte}).  Lookup is two array indexations — no
   hashing, no allocation — which is what lets the MMU's table walk (and
   the TLB-first fast path above it) stay at a handful of instructions.

   The directory grows by doubling as the bump-allocated VA space grows;
   chunks materialise lazily, so sparse address spaces stay cheap.  A
   released table's chunks go to the domain's pool, which the next
   table on that domain draws from before it makes a fresh chunk. *)

type entry = { frame : Frame_table.frame; perm : Perm.t }

let chunk_shift = 10
let chunk_size = 1 lsl chunk_shift (* 1024 pages = 4 MiB of VA per chunk *)
let chunk_mask = chunk_size - 1

type t = {
  mutable dir : int array option array;
  mutable mapped : int; (* live entries, maintained incrementally *)
  mutable walks : int;  (* diagnostic: table walks performed *)
}

(* This domain's retired chunks, cleared on reuse. *)
let pool : int array list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let create () = { dir = Array.make 128 None; mapped = 0; walks = 0 }

(* A released table has an empty directory and can never grow again. *)
let grow t want =
  if Array.length t.dir = 0 then
    invalid_arg "Page_table.map: the machine has exited";
  let len = ref (Array.length t.dir) in
  while !len <= want do
    len := !len * 2
  done;
  let dir = Array.make !len None in
  Array.blit t.dir 0 dir 0 (Array.length t.dir);
  t.dir <- dir

(* The chunk for [page], materialising it if needed. *)
let chunk_rw t page =
  let d = page lsr chunk_shift in
  if d >= Array.length t.dir then grow t d;
  match t.dir.(d) with
  | Some c -> c
  | None ->
    let c =
      let pool = Domain.DLS.get pool in
      match !pool with
      | c :: rest ->
        pool := rest;
        Array.fill c 0 chunk_size Pte.none;
        c
      | [] -> Array.make chunk_size Pte.none
    in
    t.dir.(d) <- Some c;
    c

let release t =
  let pool = Domain.DLS.get pool in
  Array.iter (function Some c -> pool := c :: !pool | None -> ()) t.dir;
  t.dir <- [||];
  t.mapped <- 0

(* Fast read-only lookup: the MMU's table walk. *)
let pte t ~page =
  t.walks <- t.walks + 1;
  let d = page lsr chunk_shift in
  if d >= Array.length t.dir then Pte.none
  else
    match Array.unsafe_get t.dir d with
    | None -> Pte.none
    | Some c -> Array.unsafe_get c (page land chunk_mask)

let map t stats ~page ~frame ~perm =
  let c = chunk_rw t page in
  let i = page land chunk_mask in
  if Pte.is_present c.(i) then
    invalid_arg (Printf.sprintf "Page_table.map: page %d already mapped" page);
  c.(i) <- Pte.make ~frame ~perm;
  t.mapped <- t.mapped + 1;
  Stats.count_page_mapped stats

let unmap t ~page =
  let d = page lsr chunk_shift in
  let missing () =
    invalid_arg (Printf.sprintf "Page_table.unmap: page %d not mapped" page)
  in
  if d >= Array.length t.dir then missing ()
  else
    match t.dir.(d) with
    | None -> missing ()
    | Some c ->
      let i = page land chunk_mask in
      let e = c.(i) in
      if not (Pte.is_present e) then missing ()
      else begin
        c.(i) <- Pte.none;
        t.mapped <- t.mapped - 1;
        { frame = Pte.frame e; perm = Pte.perm e }
      end

let lookup t ~page =
  let e = pte t ~page in
  if Pte.is_present e then Some { frame = Pte.frame e; perm = Pte.perm e }
  else None

let set_perm t ~page perm =
  let e = pte t ~page in
  if not (Pte.is_present e) then
    invalid_arg (Printf.sprintf "Page_table.set_perm: page %d not mapped" page)
  else
    match t.dir.(page lsr chunk_shift) with
    | Some c -> c.(page land chunk_mask) <- Pte.with_perm e perm
    | None ->
      failwith
        "Page_table.set_perm: present PTE in a missing directory chunk \
         (invariant: map installs the chunk before any PTE is present)"

(* Ranged protection change: walks each touched chunk once instead of
   re-indexing the directory per page.  All pages must be mapped (checked
   before any write, so a failed call changes nothing). *)
let set_perm_range t ~page ~pages perm =
  for p = page to page + pages - 1 do
    if not (Pte.is_present (pte t ~page:p)) then
      invalid_arg (Printf.sprintf "Page_table.set_perm: page %d not mapped" p)
  done;
  let p = ref page in
  let remaining = ref pages in
  while !remaining > 0 do
    let c =
      match t.dir.(!p lsr chunk_shift) with
      | Some c -> c
      | None ->
        failwith
          "Page_table.set_perm_range: present PTE in a missing directory \
           chunk (invariant: map installs the chunk before any PTE is \
           present)"
    in
    let i = !p land chunk_mask in
    let n = min !remaining (chunk_size - i) in
    for j = i to i + n - 1 do
      c.(j) <- Pte.with_perm c.(j) perm
    done;
    p := !p + n;
    remaining := !remaining - n
  done

let is_mapped t ~page = Pte.is_present (pte t ~page)
let mapped_pages t = t.mapped

let walk_count t = t.walks
