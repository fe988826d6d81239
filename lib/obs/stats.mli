(** Per-site metric registries: named counters and fixed-bucket latency
    histograms.

    Handles are resolved once at instrumentation-setup time, so the hot-path
    cost of a counter bump is one array store and of a histogram observation
    one binary search plus two stores — cheap enough to stay always-on.

    Histogram percentiles (p50/p95/p99) are estimated as the upper bound of
    the bucket containing the requested rank, which is exact enough for the
    millisecond-scale latencies the simulation produces. *)

type t

(** A per-site counter handle. *)
type counter

(** A per-site fixed-bucket histogram handle. *)
type histogram

(** [create ~n_sites ()] — an empty registry with [n_sites] tracks. *)
val create : n_sites:int -> unit -> t

val n_sites : t -> int

(** [counter t name] — the counter registered under [name], creating it on
    first use. Counter and histogram names share one namespace. *)
val counter : t -> string -> counter


(** [histogram t name] — likewise for histograms. [buckets] are the
    inclusive upper bounds (ms) of the finite buckets, strictly increasing;
    an overflow bucket is added implicitly. The default spans 0.25 ms to
    30 s in roughly 1-2-5 steps.
    @raise Invalid_argument if [name] is already registered and [buckets]
    differs from its bounds. *)
val histogram : ?buckets:float array -> t -> string -> histogram

val incr : counter -> site:int -> unit
val add : counter -> site:int -> int -> unit
val observe : histogram -> site:int -> float -> unit

(** {1 Reading} *)

val counter_value : counter -> site:int -> int
val counter_total : counter -> int

(** [total t name] — {!counter_total} of the counter registered under
    [name], 0 when there is none. Never registers one, so reading cannot
    add a column to {!pp_table}. *)
val total : t -> string -> int

(** Number of observations at [site] ([site:-1] for all sites). *)
val histogram_count : histogram -> site:int -> int

(** Sum of the observations at [site]. [site:-1] is the all-site sum kept in
    observation order, so a mean derived from it is bit-identical to one
    kept by a single running sum. *)
val histogram_sum : histogram -> site:int -> float

(** [histogram_sum / histogram_count]; 0 when empty. *)
val histogram_mean : histogram -> site:int -> float

(** Largest value observed at [site] ([site:-1] for all sites); 0 when
    empty. *)
val histogram_max : histogram -> site:int -> float

(** [percentile h ~site q] with [q] in [0,1]; 0 when empty. Pass [site:-1]
    (or use {!percentile_total}) for the all-site aggregate. When the rank
    lands in the overflow bucket the observed maximum is reported rather
    than the largest finite bound. *)
val percentile : histogram -> site:int -> float -> float

val percentile_total : histogram -> float -> float

(** [rank ~n q] — the nearest rank of quantile [q] in [n > 0] sorted
    samples: [ceil (q *. n)], 1-based, clamped to [\[1, n\]]. Shared by
    {!percentile} and exact-sample percentiles. *)
val rank : n:int -> float -> int

(** Per-site table: one row per site and an aggregate row; counters as
    columns, then each histogram's count/mean/p50/p95/p99. *)
val pp_table : Format.formatter -> t -> unit
