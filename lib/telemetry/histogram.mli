(** A log-bucketed histogram of non-negative samples.

    Buckets are geometric: [buckets_per_octave] buckets per doubling of
    the value, so a bucket spans a ratio of [2 ** (1 /
    buckets_per_octave)] and a percentile estimate is within half that
    ratio of the true sample.  Memory is proportional to the number of
    distinct occupied buckets, not to the number of samples — this is
    what lets latency percentiles stay always-on. *)

type t

val create : ?buckets_per_octave:int -> unit -> t
(** Default 16 buckets per octave (~2.2% worst-case relative error). *)

val observe : t -> float -> unit
(** Record one sample.  Negative samples are clamped to zero; zeros are
    tracked exactly in a dedicated bucket. *)

val buckets_per_octave : t -> int

val merge_into : into:t -> t -> unit
(** Fold [src]'s samples into [into]: bucket counts, zeros, count, sum
    add; extrema combine by min/max.  The result is exactly the
    histogram of the union of both sample multisets, so merging is
    associative and order-independent — the property the farm relies on
    when per-shard histograms join into one registry.  Raises
    [Invalid_argument] when the two histograms use different
    [buckets_per_octave]. *)

val merge : t -> t -> t
(** Fresh histogram holding both inputs' samples (see {!merge_into}). *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
val max_value : t -> float
(** Exact observed extrema; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t q] for [q] in [0,1]: the value at rank [ceil (q *
    count)], estimated as the geometric midpoint of its bucket and
    clamped to the observed extrema.  [q <= 0] gives the minimum, [q >=
    1] the maximum, and an empty histogram gives 0. *)

type quantiles = { q50 : float; q95 : float; q99 : float; q_mean : float }

val quantiles : t -> quantiles
(** The p50/p95/p99 {!percentile}s and the {!mean}, e.g. of a farm's
    merged per-connection latency histogram. *)

val bucket_ratio : t -> float
(** The ratio spanned by one bucket, [2 ** (1 / buckets_per_octave)]:
    the worst-case multiplicative error bound of {!percentile}. *)
