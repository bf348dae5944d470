(** Log-bucketed (HDR-style) histograms for latency distributions.

    A histogram summarizes a stream of non-negative wall-clock samples
    (seconds) into exponential buckets: each power-of-two octave is
    split into {!sub_buckets} linear sub-buckets, so every bucket's
    width is at most 1/{!sub_buckets} of its lower bound (≤ 12.5%
    relative quantile error) over the whole range from ~1 ns to ~17
    minutes, in 322 buckets.  A histogram stores only its non-empty
    buckets until it has more than 16; then it keeps one int per
    bucket, and {!record} allocates nothing.  Bucket bounds are exact binary
    floats (built with [ldexp]), so they serialize round-trippably
    through {!Json.float_repr} and are identical on every platform.

    Determinism contract: the bucket index of a sample is a pure
    function of its bits, and {!merge_into} sums bucket counts and
    combines min/max — an associative, commutative operation (there is
    deliberately no floating-point sum inside, which would be
    order-sensitive).  Two histograms fed the same multiset of samples
    in any order, or merged from any sharding of it, serialize to
    byte-identical JSON.  The {e samples} themselves are wall-clock
    and therefore not deterministic — consumers must keep histogram
    output under ["timing"] keys (DESIGN §16).

    Concurrency: a {!t} is plain mutable data with no internal locking
    — confine each instance to one domain.  Every {!Telemetry} timer
    embeds one histogram in the domain's {!Obs} context, so every
    [*.time] key gains distribution data and crosses domains inside
    {!Obs} shards. *)

type t

val sub_buckets : int
(** Linear sub-buckets per power-of-two octave (8). *)

val create : unit -> t

val record : t -> float -> unit
(** Add one sample.  Samples ≤ 0, NaN, and samples below the smallest
    bound land in the underflow bucket; samples past the largest bound
    land in the overflow bucket.  O(1); allocation-free once the
    histogram keeps one int per bucket, and until then only when a
    sample opens a bucket. *)

val count : t -> int
(** Total samples recorded (including under/overflow). *)

val min_sample : t -> float
(** Smallest sample seen ([nan] when empty). *)

val max_sample : t -> float
(** Largest sample seen ([nan] when empty). *)

val merge_into : into:t -> t -> unit
(** Fold the second histogram into [into]: bucket counts sum, min/max
    combine.  Associative and commutative up to byte-identical
    {!to_json} output, whatever the merge tree. *)

val quantile : t -> float -> float
(** [quantile h q] for [q] in [0,1]: the sample value at rank
    ⌈q·count⌉, linearly interpolated inside its bucket and clamped to
    the observed [min,max].  [nan] when the histogram is empty.
    Accurate to the bucket width (≤ 12.5% relative). *)

val buckets : t -> (float * float * int) list
(** The non-empty buckets as [(lo, hi, count)], in increasing value
    order.  [hi] of the overflow bucket is [infinity]. *)

val to_json : t -> Json.t
(** [{"count": n, "min": s, "max": s, "p50": s, "p90": s, "p99": s,
    "buckets": [{"lo": s, "hi": s, "count": n}, ...]}] — min/max and
    the quantiles are [null] when empty.  Deterministic for a fixed
    sample multiset (see above). *)
