(** Deterministic assignment of connection indices to shards.

    Both policies serve exactly the set [0, connections): a seeded
    Fisher–Yates shuffle fixes the global service order, and the policy
    only decides which shard serves which position.  Because every
    connection's behaviour depends on its index alone (fork-per-
    connection: fresh machine, fresh scheme), the {e merged} totals of a
    farm run are identical for any shard count and either policy — only
    per-shard makespans differ. *)

type policy =
  | Round_robin
      (** Deal the shuffled order round-robin across shards up front.
          Fully deterministic: per-shard assignment, per-shard cycle
          totals and the makespan all depend only on (seed, shards). *)
  | Work_steal
      (** Shards pull the next undealt position from a shared atomic
          cursor.  Per-shard assignment depends on domain timing, but
          the served multiset — hence all merged totals — is still
          exactly [0, connections). *)

val policy_label : policy -> string

type t

val create : policy:policy -> seed:int -> shards:int -> connections:int -> t
(** Raises [Invalid_argument] if [shards <= 0] or [connections < 0]. *)

val next : t -> shard:int -> int option
(** The next connection index for [shard], [None] once its share (or,
    under {!Work_steal}, the whole order) is drained.  Safe to call
    concurrently from distinct shards; a given shard must be driven from
    one domain at a time. *)

val assignment : t -> int array array
(** The round-robin deal: [assignment t].(s) lists the positions shard
    [s] would serve under {!Round_robin}, in order.  Exposed for tests
    (partition properties) and for reporting. *)
