type slot = { mutable line : int; mutable stamp : int }

type t = {
  sets : slot array array;
  n_sets : int;
  line_shift : int;
  mutable clock : int;
}

let invalid_line = -1

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ?(sets = 256) ?(ways = 4) ?(line_bytes = 64) () =
  let make_slot _ = { line = invalid_line; stamp = 0 } in
  {
    sets = Array.init sets (fun _ -> Array.init ways make_slot);
    n_sets = sets;
    line_shift = log2 line_bytes;
    clock = 0;
  }

let access t stats ~phys_addr =
  let line = phys_addr lsr t.line_shift in
  let set = t.sets.(line mod t.n_sets) in
  t.clock <- t.clock + 1;
  let rec find i =
    if i >= Array.length set then None
    else if set.(i).line = line then Some set.(i)
    else find (i + 1)
  in
  match find 0 with
  | Some slot ->
    slot.stamp <- t.clock;
    Stats.count_cache_hit stats
  | None ->
    Stats.count_cache_miss stats;
    let victim = ref set.(0) in
    Array.iter (fun s -> if s.stamp < !victim.stamp then victim := s) set;
    !victim.line <- line;
    !victim.stamp <- t.clock
