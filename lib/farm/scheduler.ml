type policy = Round_robin | Work_steal

let policy_label = function
  | Round_robin -> "round-robin"
  | Work_steal -> "work-steal"

type t = {
  policy : policy;
  order : int array; (* seeded shuffle of [0, connections) *)
  queues : int array array; (* the round-robin deal of [order] *)
  cursors : int array; (* Round_robin: per-shard position, shard-local *)
  next : int Atomic.t; (* Work_steal: shared cursor into [order] *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Prng.below rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let create ~policy ~seed ~shards ~connections =
  if shards <= 0 then invalid_arg "Scheduler.create: shards must be positive";
  if connections < 0 then invalid_arg "Scheduler.create: negative connections";
  let order = Array.init connections (fun i -> i) in
  shuffle (Workload.Prng.create ~seed) order;
  let queues =
    Array.init shards (fun s ->
        (* shard s takes positions s, s+shards, s+2*shards, ... *)
        let n = max 0 ((connections - s + shards - 1) / shards) in
        Array.init n (fun k -> order.(s + (k * shards))))
  in
  { policy; order; queues; cursors = Array.make shards 0; next = Atomic.make 0 }

let next t ~shard =
  match t.policy with
  | Round_robin ->
    let c = t.cursors.(shard) in
    let queue = t.queues.(shard) in
    if c >= Array.length queue then None
    else begin
      t.cursors.(shard) <- c + 1;
      Some queue.(c)
    end
  | Work_steal ->
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= Array.length t.order then None else Some t.order.(i)

let assignment t = Array.map Array.copy t.queues
