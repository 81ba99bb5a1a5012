(* Set-associative, LRU per set.  Each set is a small array of slots; the
   LRU order is tracked with a monotonically increasing use stamp.

   Slots cache the whole packed page-table entry — translation *and*
   protection bits — so a hit answers an access without consulting the
   page table at all.  The contract that makes this sound: every writer
   of the page table (Kernel.map_page remaps, mprotect, munmap) shoots
   the affected pages down here first. *)

type slot = { mutable page : int; mutable pte : Pte.t; mutable stamp : int }

type t = {
  sets : slot array array;
  n_sets : int;
  mutable clock : int;
}

let invalid_page = -1

let create ?(entries = 64) ?(ways = 4) () =
  if entries mod ways <> 0 then invalid_arg "Tlb.create: entries mod ways <> 0";
  let n_sets = entries / ways in
  let make_slot _ = { page = invalid_page; pte = Pte.none; stamp = 0 } in
  {
    sets = Array.init n_sets (fun _ -> Array.init ways make_slot);
    n_sets;
    clock = 0;
  }

let set_of t page = t.sets.(page mod t.n_sets)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The fast path: packed entry on a hit, [Pte.none] on a miss.  No
   allocation either way. *)
let lookup_pte t stats ~page =
  let set = set_of t page in
  let ways = Array.length set in
  let rec find i =
    if i >= ways then Pte.none
    else
      let s = Array.unsafe_get set i in
      if s.page = page then begin
        s.stamp <- tick t;
        s.pte
      end
      else find (i + 1)
  in
  let pte = find 0 in
  if Pte.is_present pte then Stats.count_tlb_hit stats
  else Stats.count_tlb_miss stats;
  pte

let lookup t stats ~page =
  let pte = lookup_pte t stats ~page in
  if Pte.is_present pte then Some (Pte.frame pte, Pte.perm pte) else None

let insert_pte t ~page ~pte =
  let set = set_of t page in
  (* Reuse an existing slot for this page if present, else evict LRU. *)
  let victim = ref set.(0) in
  Array.iter
    (fun s ->
      if s.page = page then victim := s
      else if !victim.page <> page && s.stamp < !victim.stamp then victim := s)
    set;
  let v = !victim in
  v.page <- page;
  v.pte <- pte;
  v.stamp <- tick t

let insert t ~page ~frame ~perm = insert_pte t ~page ~pte:(Pte.make ~frame ~perm)

let invalidate_page t ~page =
  let set = set_of t page in
  Array.iter (fun s -> if s.page = page then s.page <- invalid_page) set

(* Ranged shootdown.  A run of [n_sets] consecutive pages touches every
   set, so for wide ranges one sweep over all slots beats per-page set
   probing; narrow ranges keep the per-page path. *)
let invalidate_range t ~page ~pages =
  if pages >= t.n_sets then
    Array.iter
      (fun set ->
        Array.iter
          (fun s ->
            if s.page >= page && s.page < page + pages then
              s.page <- invalid_page)
          set)
      t.sets
  else
    for p = page to page + pages - 1 do
      invalidate_page t ~page:p
    done

let clear t =
  Array.iter (fun set -> Array.iter (fun s -> s.page <- invalid_page) set) t.sets

let flush t stats =
  clear t;
  Stats.count_tlb_flush stats
