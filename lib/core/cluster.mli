(** Shared site runtime: one simulated distributed database instance.

    A cluster bundles the substrate a protocol runs on — simulation kernel,
    per-site stores and lock managers, per-machine CPUs, the data placement,
    the access history and metric counters — plus the bookkeeping the driver
    needs to detect quiescence (outstanding in-flight work, running clients,
    the stop flag that shuts periodic processes down). *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Condvar = Repdb_sim.Condvar
module Store = Repdb_store.Store
module Wal = Repdb_store.Wal
module Lock_mgr = Repdb_lock.Lock_mgr
module Fault = Repdb_fault.Fault
module History = Repdb_txn.History
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Trace = Repdb_obs.Trace
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Timeline = Repdb_obs.Timeline
module Profile = Repdb_obs.Profile

(** Epoch-switch state. Only {!Epoch} reads or writes it, except that
    {!dec_outstanding} and {!txn_finished} broadcast [drained]. *)
type epoch = {
  mutable config_epoch : int;
      (** Bumped once per executed switch. Propagation messages carry the
          epoch they were routed under. *)
  mutable reconfiguring : bool;  (** A switch is in progress. *)
  drained : Condvar.t;
      (** Broadcast (while reconfiguring) when [active_txns] and
          [outstanding] both reach 0. *)
  resume : Condvar.t;  (** Broadcast when the switch completes. *)
  mutable reconfigs : int;  (** Operator plan steps executed so far. *)
  mutable state_transfers : int;  (** Item values bulk-copied to new copies. *)
  mutable stall_total : float;  (** Total client stall at the barrier, ms. *)
  switch_hist : Stats.histogram option;
      (** Drain + transfer + switch latency per plan step
          (["reconfig.switch"]); registered only when a plan exists, so
          static-topology stats tables are unchanged. *)
  stall_hist : Stats.histogram option;  (** Per-site client stall times. *)
  stale_drop_ctr : Stats.counter option;
      (** ["heal.stale_drop"]; registered only when [params.heal]. *)
}

type t = {
  sim : Sim.t;
  params : Params.t;
  mutable placement : Placement.t;
      (** Current data placement; replaced wholesale at an epoch switch
          (while the cluster is drained), never mutated in place. *)
  lat_fn : int -> int -> float;  (** One-way latency per ordered site pair. *)
  stores : Store.t array;
  locks : Lock_mgr.t array;
  cpus : Resource.t array;  (** One per machine; sites map round-robin. *)
  history : History.t;
  metrics : Metrics.t;
  trace : Trace.t;  (** Structured event trace; disabled unless requested. *)
  stats : Stats.t;  (** Per-site counter/histogram registry; always on. *)
  prop_hist : Stats.histogram;  (** Propagation-delay histogram, per site. *)
  rng : Rng.t;  (** Workload stream; derived from [params.seed]. *)
  mutable next_gid : int;
  mutable next_attempt : int;
  mutable messages : int;  (** Network messages sent, all networks combined. *)
  mutable outstanding : int;  (** In-flight messages / pending remote work. *)
  mutable clients_running : int;
  mutable stopped : bool;  (** Set once quiescent; periodic processes exit. *)
  quiesced : Condvar.t;  (** Broadcast on transitions relevant to quiescence. *)
  injector : Fault.injector option;
      (** Built from [params.faults] when that schedule is non-empty; drives
          the networks' drop/delay behaviour and {!schedule_faults}. *)
  wals : Wal.t array;
      (** Per-site redo logs, attached at creation — only under fault
          injection ([[||]] otherwise), since hooking every write has a cost
          and fault-free runs never crash. *)
  site_up : bool array;
  up_cv : Condvar.t array;  (** Per-site; broadcast when the site restarts. *)
  mutable crashes : int;  (** Crash events executed so far. *)
  mutable partitions : int;  (** Partition windows activated so far. *)
  mutable deadline_at : float;
      (** Absolute deadline of the submit being started, armed by the client
          immediately before [submit]; protocols capture it at entry (there
          is no blocking point in between, so the handoff never mixes
          transactions). [infinity] when deadlines are off. *)
  apply_mtime : float array array;
      (** [site][item] — simulated time of the last write applied locally;
          the staleness clock for partition-time local reads. *)
  stale_ctr : Stats.counter option;
      (** ["read.stale"]; registered only when [params.stale_reads > 0], so
          stats tables without the feature are unchanged. *)
  mutable active_txns : int;  (** Transaction attempts currently executing. *)
  spans : Span.t;
      (** Transaction phase attribution (always on; registers the five
          [span.*] histograms in [stats]). *)
  profile : Profile.t;
      (** The kernel's self-profiler; enabled iff [params.profile]. *)
  timeline : Timeline.t option;
      (** Sampled time series, present iff [params.timeline_every > 0];
          filled by the driver's ticker via {!sample_timeline}. *)
  commit_ctr : Stats.counter;  (** ["txn.commit"] — shared with the driver. *)
  abort_ctr : Stats.counter;  (** ["txn.abort"]. *)
  tl_commits_prev : int array;  (** Counter snapshots at the last sample. *)
  tl_aborts_prev : int array;
  lag_pending : int array;
      (** Per site: propagated updates destined but not yet applied
          (maintained only while a timeline exists). *)
  lag_applied : float array;
      (** Per site: origin-commit time of the newest update applied. *)
  lag_seen : bool array;  (** Scratch for {!note_destined} deduplication. *)
  mutable inflight_fns : ((src:int -> dst:int -> bool) -> int) list;
      (** Per network/batcher: in-flight units on the pairs a predicate
          selects — every pair for the timeline, parked ones for the weak
          drain. *)
  corrupted : (int * int, unit) Hashtbl.t;
      (** [(site, item)] replica copies scrambled by a [corrupt@] clause and
          not yet repaired; cleared by recovery and anti-entropy. *)
  mutable corruption_events : int;  (** Corruption injections executed. *)
  mutable corrupt_items : int;  (** Copies scrambled, cumulative. *)
  mutable phi_fn : (unit -> float array) option;
      (** Healer-installed sampler: per-site suspicion level for the
          timeline's φ column. *)
  epoch : epoch;
  corrupt_ctr : Stats.counter option;
      (** ["corrupt.items"]; registered only when [params.heal]. *)
}

(** [create params] — build the cluster; the placement is drawn from a
    generator derived from [params.seed]. Pass [~trace:true] to collect a
    structured event trace (ring of [trace_capacity] events, default 2^20);
    the per-site stats registry is always on. *)
val create : ?trace:bool -> ?trace_capacity:int -> Params.t -> t

(** [create_with ?latency params placement] — same but with a fixed placement
    (used by examples and tests that need a hand-built copy graph), and
    optionally a per-pair latency function (e.g. to model one slow link, the
    condition that exposes Example 1.1 under indiscriminate propagation). *)
val create_with :
  ?latency:(int -> int -> float) -> ?trace:bool -> ?trace_capacity:int -> Params.t -> Placement.t -> t

(** Fresh global transaction id. *)
val fresh_gid : t -> int

(** Fresh execution-attempt id (lock owner). *)
val fresh_attempt : t -> int

(** [use_cpu t site d] — consume [d] ms of the site's machine CPU (FIFO). *)
val use_cpu : t -> int -> float -> unit

(** Constant-latency function for building networks from [params.latency]. *)
val latency_fn : t -> int -> int -> float

(** [make_net t] — a fresh network wired to the cluster's simulation, latency,
    message counter, trace and stats registry. Each protocol builds its own
    typed network(s); [describe] tags traced messages with a kind and an
    approximate size in bytes. *)
val make_net : ?describe:('a -> string * int) -> t -> 'a Repdb_net.Network.t

(** [make_batch_net t] — a network carrying per-pair coalesced update runs
    ([batch_size]/[batch_linger_ms] from the cluster's params). Message
    counters, per-site stats and the timeline's in-flight sample account
    logical updates, not envelopes, so metrics stay comparable across batch
    sizes; [describe_one] describes a single update (a singleton batch is
    described exactly like the bare message, larger batches as
    ["kind[n]"] with summed sizes). *)
val make_batch_net : ?describe_one:('a -> string * int) -> t -> 'a list Repdb_net.Network.t

(** [make_batcher t net] — the coalescer feeding [net], configured from the
    cluster's [batch_size]/[batch_linger_ms]; updates still parked in it are
    included in the timeline's in-flight sample. *)
val make_batcher : t -> 'a list Repdb_net.Network.t -> 'a Repdb_net.Batcher.t

(** {1 Trace emission helpers}

    No-ops when the trace is disabled; protocols call these instead of
    touching the trace directly. *)

(** [trace_txn_begin t ~gid ~attempt ~site] also opens the transaction's
    phase spans and ties its lock-owner id [attempt] to [gid], so lock waits
    are attributed. Protocols call it right after allocating the ids. *)
val trace_txn_begin : t -> gid:int -> attempt:int -> site:int -> unit

val trace_txn_commit : t -> gid:int -> site:int -> unit
val trace_txn_abort : t -> gid:int -> site:int -> Repdb_txn.Txn.abort_reason -> unit
val trace_secondary_recv : t -> gid:int -> site:int -> unit
val trace_secondary_commit : t -> gid:int -> site:int -> unit
val trace_queue_depth : t -> site:int -> queue:string -> depth:int -> unit
val trace_txn_deadline : t -> gid:int -> site:int -> unit

(** {1 Per-transaction deadlines} *)

(** Arm {!field:deadline_at} for the submit about to start: now +
    [params.txn_deadline], or [infinity] when deadlines are disabled. Called
    by the driver's client immediately before each attempt. *)
val arm_deadline : t -> unit

(** The currently armed absolute deadline (ms of simulated time). *)
val deadline_at : t -> float

(** {1 Bounded-staleness reads} *)

(** Stamp [item]'s local copy at [site] as written now. Called on every
    applied write (primary and replica). *)
val note_apply : t -> site:int -> item:int -> unit

(** ms since [item] was last written at [site] (time itself if never). *)
val staleness : t -> site:int -> item:int -> float

(** Account a partition-time local read: metrics, the ["read.stale"] counter
    and a [Stale_read] trace event. *)
val record_stale_read : t -> site:int -> item:int -> staleness:float -> unit

(** Record a replica update in the aggregate metrics, the per-site
    propagation-delay histogram and (when enabled) the trace; also advances
    the replication-lag bookkeeping when a timeline is being sampled. *)
val record_propagation : t -> gid:int -> site:int -> delay:float -> unit

(** {1 Replication-lag timeline}

    All no-ops unless [params.timeline_every > 0]. *)

(** [note_destined t ~items] — called by the lazy protocols at origin-commit
    time with the committed write set: every site holding a replica of a
    written item gains one pending update (once per transaction). *)
val note_destined : t -> items:int list -> unit

(** Append one sample row (gauges now, commit/abort deltas since the last
    sample). The driver's ticker calls this every [params.timeline_every]
    ms. *)
val sample_timeline : t -> unit

(** {1 Phase spans} *)

(** Charge [dur] ms of a phase to the attempt [owner] linked by
    {!trace_txn_begin}. *)
val span_add : t -> owner:int -> Span.phase -> float -> unit

(** Observe client think (retry backoff) time at [site]. *)
val span_think : t -> site:int -> float -> unit

(** Intern a profiler category name (cheap; "other" when disabled). *)
val profile_cat : t -> string -> int

(** {1 Quiescence accounting} *)

val inc_outstanding : t -> unit
val dec_outstanding : t -> unit
val client_started : t -> unit
val client_finished : t -> unit

(** [quiescent t] — no clients running and nothing outstanding. *)
val quiescent : t -> bool

(** Block until {!quiescent}, then set [stopped]. *)
val await_quiescence : t -> unit

(** {1 Fault injection}

    Crashes are modelled at the storage and transport boundaries: while a
    site is down it is unreachable in both directions (the networks' acked
    links retry around the downtime) and its clients pause before starting
    new transactions; at restart the volatile store is discarded and rebuilt
    from the site's redo log. Work the site had already accepted completes —
    the paper's durability story (DataBlitz redo recovery) covers committed
    state, not scheduler state. *)

(** Is fault injection active (i.e. [params.faults] non-empty)? *)
val faulty : t -> bool

val site_up : t -> int -> bool

(** Block until the site is up; returns immediately if it already is.
    Clients call this before starting each transaction. *)
val await_site_up : t -> int -> unit

(** Schedule every crash/restart in the fault schedule as simulation events,
    plus counting/trace marks for each partition begin and heal; no-op
    without an injector. The driver calls this before starting clients. *)
val schedule_faults : t -> unit

(** Crash events executed so far. *)
val crash_count : t -> int

(** Partition windows activated so far. *)
val partition_count : t -> int

(** {1 Epoch-switch drain accounting}

    {!Epoch} runs every placement change on a drained cluster; these hooks
    keep the count it drains on. *)

(** Bracket every transaction execution attempt (including retries); the
    drain condition counts attempts, not clients, because clients survive
    epoch switches. *)
val txn_started : t -> unit

val txn_finished : t -> unit

(** {1 Self-healing}

    Hooks used by {!Heal_exec} (the φ-accrual detector, failover coordinator
    and anti-entropy repairer); all idle unless [params.heal]. *)

(** Install the per-site suspicion sampler feeding the timeline φ columns. *)
val set_phi_fn : t -> (unit -> float array) -> unit

(** Corruption injections executed so far. *)
val corruption_count : t -> int

(** Copies scrambled so far, cumulative (repairs do not subtract). *)
val corrupt_items_total : t -> int

(** Clear a corruption mark (the healer repaired or re-verified the copy). *)
val clear_corrupt : t -> site:int -> item:int -> unit
