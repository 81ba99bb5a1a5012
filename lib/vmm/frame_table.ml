(* Physical memory as a growable slot array indexed by frame number —
   frame lookup is one bounds-checked array read, not a hash probe.
   Freed frame numbers go on a free list and are reused (as a real
   physical allocator would), which also keeps the array bounded by the
   *peak* frame count rather than the cumulative allocation count.

   Page buffers outlive their frames: a frame released by its last
   unmapping, or by its machine's {!release}, hands its buffer to the
   domain's pool, and {!allocate} takes from that pool before it makes a
   fresh one.  A fork-per-connection server's next child then runs in
   the pages the last one left, instead of in fresh 4 KiB major-heap
   blocks that every domain must stop to collect. *)

type frame = int

type slot = { storage : Bytes.t; mutable refs : int }

type t = {
  mutable slots : slot option array;
  mutable free : frame list; (* retired frame numbers, ready for reuse *)
  mutable next : frame;      (* never-used watermark *)
  mutable live : int;
  mutable peak : int;
  mutable lookups : int;     (* diagnostic: slot lookups performed *)
}

(* This domain's retired page buffers, zero-filled on reuse.  Only the
   owning domain touches its pool, so it needs no lock. *)
let pool : Bytes.t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let create () =
  { slots = Array.make 64 None; free = []; next = 0; live = 0; peak = 0;
    lookups = 0 }

(* A released table has an empty slot array, so it can never grow again:
   a frame allocated after release would have nowhere to live. *)
let grow t want =
  if Array.length t.slots = 0 then
    invalid_arg "Frame_table.allocate: the machine has exited";
  let len = ref (Array.length t.slots) in
  while !len <= want do
    len := !len * 2
  done;
  let slots = Array.make !len None in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  t.slots <- slots

let allocate t stats =
  let f =
    match t.free with
    | f :: rest ->
      t.free <- rest;
      f
    | [] ->
      let f = t.next in
      t.next <- t.next + 1;
      if f >= Array.length t.slots then grow t f;
      f
  in
  let storage =
    let pool = Domain.DLS.get pool in
    match !pool with
    | b :: rest ->
      pool := rest;
      Bytes.fill b 0 Addr.page_size '\000';
      b
    | [] -> Bytes.make Addr.page_size '\000'
  in
  t.slots.(f) <- Some { storage; refs = 0 };
  Stats.count_frame_allocated stats;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  f

let slot t f =
  t.lookups <- t.lookups + 1;
  if f < 0 || f >= Array.length t.slots then
    invalid_arg (Printf.sprintf "Frame_table: unknown frame %d" f)
  else
    match Array.unsafe_get t.slots f with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Frame_table: unknown frame %d" f)

let incr_ref t f =
  let s = slot t f in
  s.refs <- s.refs + 1

let decr_ref t f =
  let s = slot t f in
  s.refs <- s.refs - 1;
  if s.refs < 0 then
    failwith
      (Printf.sprintf
         "Frame_table.decr_ref: frame %d refcount went negative (invariant: \
          every decr_ref pairs a prior incr_ref)"
         f);
  if s.refs = 0 then begin
    t.slots.(f) <- None;
    t.free <- f :: t.free;
    let pool = Domain.DLS.get pool in
    pool := s.storage :: !pool;
    t.live <- t.live - 1
  end

let release t =
  let pool = Domain.DLS.get pool in
  Array.iter
    (function Some s -> pool := s.storage :: !pool | None -> ())
    t.slots;
  t.slots <- [||];
  t.free <- [];
  t.live <- 0

let ref_count t f = (slot t f).refs
let live_frames t = t.live
let peak_frames t = t.peak

let read_byte t f off = Char.code (Bytes.get (slot t f).storage off)
let write_byte t f off v = Bytes.set (slot t f).storage off (Char.chr (v land 0xff))

(* Word-wide access: one slot lookup and one [Bytes] primitive for the
   whole access.  [off + width] must stay within the page (the MMU's
   single-page fast path guarantees it); widths are 1/2/4/8 as validated
   by the MMU.  Values are little-endian, matching the byte accessors:
   an 8-byte value round-trips modulo 2^63 exactly as the per-byte loop
   did (both truncate the same way on OCaml's 63-bit ints). *)
let read_word t f off ~width =
  let s = (slot t f).storage in
  match width with
  | 1 -> Char.code (Bytes.get s off)
  | 2 -> Bytes.get_uint16_le s off
  | 4 -> Int32.to_int (Bytes.get_int32_le s off) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le s off)
  | _ -> invalid_arg (Printf.sprintf "Frame_table.read_word: width %d" width)

let write_word t f off v ~width =
  let s = (slot t f).storage in
  match width with
  | 1 -> Bytes.set s off (Char.chr (v land 0xff))
  | 2 -> Bytes.set_uint16_le s off (v land 0xffff)
  | 4 -> Bytes.set_int32_le s off (Int32.of_int v)
  | 8 -> Bytes.set_int64_le s off (Int64.of_int v)
  | _ -> invalid_arg (Printf.sprintf "Frame_table.write_word: width %d" width)

let exists t f = f >= 0 && f < Array.length t.slots && t.slots.(f) <> None
let lookup_count t = t.lookups
