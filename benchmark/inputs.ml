(* Everything a workload feeds the system is generated here from the
   benchmark seed, before any timing starts; the system under test only
   ever sees these arrays.  The Olden and utility kernels fix their own
   inputs with internal seeds, so the seed varies only the servers mix
   and the long-lived request script. *)

(* Small seeds start xorshift in a sparse state; a few draws mix it. *)
let rng_of_seed seed =
  let rng = Workload.Prng.create ~seed in
  for _ = 1 to 8 do
    ignore (Workload.Prng.next rng : int)
  done;
  rng

(* The daemon serving each connection, an index into
   [Workload.Servers.all]. *)
let servers ~seed ~connections =
  let rng = rng_of_seed seed in
  let n = List.length Workload.Servers.all in
  Array.init connections (fun _ -> Workload.Prng.below rng n)

type long_lived = {
  requests : int;
  startup : int;  (** objects allocated before the first request *)
  sizes : int array;
      (** bytes per object id: ids [0, startup) are the startup
          population, request [r] allocates ids [startup + 4r .. +3] *)
  dying : int array array;
      (** ids freed at the end of each request, ascending; objects whose
          death falls after the last request are never freed *)
  accesses : int array;
      (** [accesses_per_request] per request, [(id lsl 6) lor word]:
          the first [loads_per_request] are loads, the rest stores *)
}

let allocs_per_request = 4
let loads_per_request = 64
let stores_per_request = 16
let accesses_per_request = loads_per_request + stores_per_request
let word_bits = 6
let long_lifetime_max = 16_384

(* A seeded shuffle of [0, n). *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workload.Prng.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Heavy-tailed lifetimes, in requests: three of each request's four
   objects die within 16 requests, the fourth lives log-uniformly
   between 64 and 16k requests — the session object that pins shadow
   pages for a long time.  Sizes, long lifetimes and startup deaths are
   stratified (each stratum once, in seeded order), so a seed reorders
   the script without changing its totals: simulated results then vary
   little from seed to seed. *)
let long_lived ~seed ~requests ~startup =
  let rng = rng_of_seed seed in
  let objects = startup + (allocs_per_request * requests) in
  let size_order = permutation rng objects in
  let startup_order = permutation rng startup in
  let long_order = permutation rng requests in
  let sizes = Array.init objects (fun id -> 32 + (8 * (size_order.(id) mod 31))) in
  let live = Array.make objects 0 in
  let slot = Array.make objects 0 in
  let n_live = ref 0 in
  let buckets = Array.make requests [] in
  let born id death =
    slot.(id) <- !n_live;
    live.(!n_live) <- id;
    incr n_live;
    if death < requests then buckets.(death) <- id :: buckets.(death)
  in
  (* Startup deaths evenly spaced over twice the pass: about half the
     startup population outlives it, so the live set stays near
     [startup] throughout. *)
  for id = 0 to startup - 1 do
    born id (startup_order.(id) * 2 * requests / startup)
  done;
  let long_lifetime r =
    let u = (float_of_int long_order.(r) +. Workload.Prng.float rng) /. float_of_int requests in
    int_of_float (64. *. ((float_of_int long_lifetime_max /. 64.) ** u))
  in
  let accesses = Array.make (requests * accesses_per_request) 0 in
  let dying = Array.make requests [||] in
  for r = 0 to requests - 1 do
    let long_slot = Workload.Prng.below rng allocs_per_request in
    for k = 0 to allocs_per_request - 1 do
      let life =
        if k = long_slot then long_lifetime r else 1 + Workload.Prng.below rng 16
      in
      born (startup + (allocs_per_request * r) + k) (r + life)
    done;
    for k = 0 to accesses_per_request - 1 do
      let id = live.(Workload.Prng.below rng !n_live) in
      let word = Workload.Prng.below rng (sizes.(id) / 8) in
      accesses.((r * accesses_per_request) + k) <- (id lsl word_bits) lor word
    done;
    let ids = Array.of_list (List.sort_uniq compare buckets.(r)) in
    dying.(r) <- ids;
    Array.iter
      (fun id ->
        let j = slot.(id) in
        let last = live.(!n_live - 1) in
        live.(j) <- last;
        slot.(last) <- j;
        decr n_live)
      ids
  done;
  { requests; startup; sizes; dying; accesses }
