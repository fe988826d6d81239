(** Run-time metrics (Section 5.3 of the paper).

    The paper's primary metrics are {e average throughput} — the average of
    the per-site primary-subtransaction throughputs — and {e abort rate} —
    the percentage of primary subtransactions that abort. We also collect the
    two §5.3.4 metrics: average response time of committed transactions and
    the update-propagation delay to replicas, plus a per-site breakdown of
    commit/abort traffic (the aggregate curves of §5.3 are explained by
    behaviour at individual sites, so the summary exposes it).

    [Metrics] owns all of a run's telemetry: the trace ring, the per-site
    {!Repdb_obs.Stats} registry, the phase spans and the sampled timeline.
    Each signal has exactly one recording call below. Every count and sum
    lives in the registry alone; [Metrics] keeps only what a registry cannot
    hold: exact response samples, aborts per reason, the availability
    buckets, the staleness sum and maximum, and the last client finish. *)

type t

(** [create stats] — the run's telemetry over the registry [stats]: it
    registers ["txn.abort"], ["txn.commit"], ["read.stale"] (only when
    [stale_reads]) and ["prop.delay"] there, in that order, and ["response"]
    at the first {!outcome}. [sim] (default: a fresh kernel) stamps
    outcomes, spans and samples; [trace] defaults to
    {!Repdb_obs.Trace.disabled}; [spans] defaults to a fresh
    {!Repdb_obs.Span.t} over [stats]; without [timeline], {!destined} and
    {!sample} are no-ops. *)
val create :
  ?sim:Repdb_sim.Sim.t ->
  ?trace:Repdb_obs.Trace.t ->
  ?spans:Repdb_obs.Span.t ->
  ?timeline:Repdb_obs.Timeline.t ->
  ?stale_reads:bool ->
  Repdb_obs.Stats.t ->
  t

(** {1 Sinks} *)

val trace : t -> Repdb_obs.Trace.t

(** The per-site registry: the only store of every count and sum. *)
val stats : t -> Repdb_obs.Stats.t

val timeline : t -> Repdb_obs.Timeline.t option

(** Record a trace event when tracing is on. The event is built even when
    tracing is off, so hot paths guard with {!Repdb_obs.Trace.on} instead. *)
val emit : t -> Repdb_obs.Event.kind -> unit

(** {1 Recording (called by protocols and the driver)} *)

(** [txn_begin t ~gid ~attempt ~site] opens the transaction's phase spans,
    ties its lock-owner id [attempt] to [gid] so lock waits are attributed,
    and traces the begin. Protocols call it right after allocating the ids. *)
val txn_begin : t -> gid:int -> attempt:int -> site:int -> unit

(** Close the spans of [gid] and trace its commit or abort at the origin. *)
val txn_commit : t -> gid:int -> site:int -> unit

val txn_abort : t -> gid:int -> site:int -> Repdb_txn.Txn.abort_reason -> unit

(** Charge [dur] ms of a phase to the attempt [owner] linked by
    {!txn_begin}. *)
val span : t -> owner:int -> Repdb_obs.Span.phase -> float -> unit

(** Client think (retry backoff) time at [site]. *)
val think : t -> site:int -> float -> unit

(** Trace-only signals. *)
val deadline : t -> gid:int -> site:int -> unit

val secondary_recv : t -> gid:int -> site:int -> unit
val secondary_commit : t -> gid:int -> site:int -> unit
val queue_depth : t -> site:int -> queue:string -> depth:int -> unit

(** A client attempt at [site] ended now: counted in ["txn.commit"] or
    ["txn.abort"], per reason, and in the availability bucket of now; a
    commit also records its [response] (ms since the transaction started)
    as an exact sample and in the ["response"] histogram. [response] is
    ignored for an abort. *)
val outcome : t -> site:int -> response:float -> Repdb_txn.Txn.outcome -> unit

(** A client thread finished all its transactions at [time]. *)
val client_done : t -> time:float -> unit

(** A replica at [site] applied [gid]'s updates [delay] ms after the primary
    committed: the ["prop.delay"] histogram, the replication-lag bookkeeping
    and a [Prop_apply] trace event. *)
val propagation : t -> gid:int -> site:int -> delay:float -> unit

(** A PSL read of [item] served from [site]'s local replica during a
    partition; [staleness] is ms since that copy was last written. *)
val stale_read : t -> site:int -> item:int -> staleness:float -> unit

(** [destined t placement ~items] — called by the lazy protocols at
    origin-commit time with the committed write set: every site holding a
    replica of a written item gains one pending update (once per
    transaction). *)
val destined : t -> Repdb_workload.Placement.t -> items:int list -> unit

(** Append one timeline row: the gauges given, commit/abort deltas since the
    last sample, replication lag and φ. {!Driver}'s ticker calls this every
    [params.timeline_every] ms. *)
val sample : t -> active:int -> inflight:int -> locks:Repdb_lock.Lock_mgr.t array -> unit

(** Install the per-site suspicion sampler feeding the timeline φ columns. *)
val set_phi : t -> (unit -> float array) -> unit

(** {1 Summary} *)

type site_summary = {
  site : int;
  s_commits : int;
  s_aborts : int;
  s_avg_response : float;  (** ms, committed transactions originated here. *)
}

type summary = {
  commits : int;
  aborts : int;
  abort_rate : float;  (** Percentage of attempts that aborted. *)
  aborts_by_reason : (Repdb_txn.Txn.abort_reason * int) list;
  duration : float;  (** ms from start until the last client finished. *)
  throughput : float;  (** Committed primaries per second, whole system. *)
  throughput_per_site : float;  (** [throughput / m] — the paper's metric. *)
  avg_response : float;  (** ms, committed transactions only. *)
  p50_response : float;  (** Median response, ms. *)
  p95_response : float;  (** 95th-percentile response, ms. *)
  p99_response : float;  (** 99th-percentile response, ms. *)
  avg_propagation : float;  (** ms from primary commit to replica apply. *)
  n_propagations : int;
  messages : int;  (** Total network messages (all kinds). *)
  per_site : site_summary list;  (** One row per origin site. *)
  timeline : (float * int * int) list;
      (** Goodput / abort-rate timeline: [(bucket_start_ms, commits, aborts)]
          per 100 ms bucket. *)
  unavail_ms : float;
      (** Total ms in buckets with aborts but no commits — time the system
          was reachable-but-refusing. Idle buckets do not count. *)
  unavail_windows : int;  (** Maximal runs of unavailable buckets. *)
  stale_reads : int;
  max_staleness : float;  (** ms; 0 when no stale reads. *)
  avg_staleness : float;  (** ms; 0 when no stale reads. *)
}

(** [percentile sorted q] — nearest-rank percentile of an ascending-sorted
    sample: the element at {!Repdb_obs.Stats.rank}, 0 when empty. Agrees with
    {!Repdb_obs.Stats.percentile} up to bucket resolution. *)
val percentile : float array -> float -> float

(** The summary, read from the registry: counts and sums from its counters
    and histograms, [messages] from ["msg.sent"]; reading registers
    nothing. [duration] is the latest {!client_done} time. *)
val summary : t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** The per-site breakdown as one line per site. *)
val pp_per_site : Format.formatter -> summary -> unit
