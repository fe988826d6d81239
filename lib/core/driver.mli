(** Workload driver: runs one protocol on one parameter setting and reports.

    Spawns [threads_per_site] client processes per site, each executing
    [txns_per_thread] generated transactions back to back (the paper's
    closed-loop clients), plus a quiescence watcher that lets the propagation
    machinery drain and then stops the periodic processes. Each client thread
    draws from its own RNG stream derived from the seed, so every protocol
    faces the identical workload; retry backoff jitter comes from a second,
    independent per-thread stream, so enabling
    {!Repdb_workload.Params.retry_policy} retries does not shift the
    workload draws. When [txn_deadline > 0] every submit attempt gets a
    fresh deadline ({!Cluster.deadline}, read by the protocol at entry). *)

type report = {
  protocol : string;
  params : Repdb_workload.Params.t;
  summary : Metrics.summary;
  serializability : Repdb_txn.Serializability.verdict option;
      (** [Some] iff [params.record_history]. *)
  divergent : Convergence.divergence list option;
      (** [Some] for protocols that physically update replicas. *)
  copy_graph_edges : int;
  n_backedges : int;  (** Under the chain site order. *)
  n_replicas : int;
  lock_stats : Repdb_lock.Lock_mgr.stats;  (** Summed over sites. *)
  sim_events : int;
  sim_time : float;
      (** Simulated ms at which the run quiesced: the instant the last client
          had finished and no message or remote work was outstanding. Timer
          wake-ups that fire after it (lock timeouts, the timeline ticker)
          and healing's final sweep do not count. *)
  trace : Repdb_obs.Trace.t;
      (** The run's event trace; {!Repdb_obs.Trace.disabled} unless [run] was
          called with [~trace:true]. Export with {!Repdb_obs.Export}. *)
  site_stats : Repdb_obs.Stats.t;  (** Per-site counters and histograms. *)
  crashes : int;  (** Crash events injected and survived; 0 without faults. *)
  msg_drops : int;
      (** Dropped transmission attempts across all networks; 0 without
          faults. *)
  partitions : int;
      (** Partition windows that activated during the run; 0 without
          faults. *)
  reconfigs : int;  (** Epoch switches executed; 0 without a reconfig plan. *)
  state_transfers : int;  (** Item values bulk-copied to newly added replicas. *)
  reconfig_stall : float;
      (** Total simulated ms clients spent stalled at the epoch barrier —
          the run's aggregate mid-run throughput dip. *)
  retries_exhausted : int;
      (** Transactions still aborted after [max_retries] retries; 0 without
          a retry policy. {!pp_report} prints it only when non-zero. *)
  heal : Heal_exec.summary option;
      (** Self-healing totals (suspicions, failovers, MTTR, repairs);
          [Some] iff [params.heal]. *)
  timeline : Repdb_obs.Timeline.t option;
      (** Fixed-interval telemetry samples; [Some] iff
          [params.timeline_every > 0]. Export with
          {!Repdb_obs.Timeline.to_csv}. *)
}

(** [run ?placement params protocol] — build a cluster (with the given or a
    generated placement), run the workload to quiescence, and report.
    [~trace:true] collects a structured event trace into the report.

    {b Domain safety.} [run] is safe to call concurrently from several
    domains (the experiment harness does, via [Repdb_par.Pool]): every piece
    of mutable state it touches — the simulator and its event heap, RNG
    streams, stores, lock managers, network, metrics, trace and per-site
    stats — is created inside the call and owned by its cluster. An audit
    (this PR) found no module-level mutable state anywhere in
    core/sim/store/lock/net/txn/workload/obs; the only shared top-level
    values ([Params.default], [Registry.all], [Stats.default_buckets],
    [Trace.disabled]) are never written ([Trace.record] is a no-op on the
    disabled trace). A caller-supplied [?placement] may be shared across
    concurrent runs: it is read-only after construction.
    @raise Failure if the system fails to quiesce within a horizon derived
    from the params: 2 s plus a round trip per operation for each of a
    site's transactions, plus a drain allowance and the last scheduled
    fault or reconfiguration (indicates a protocol bug). *)
val run :
  ?placement:Repdb_workload.Placement.t ->
  ?trace:bool ->
  Repdb_workload.Params.t ->
  Protocol.t ->
  report

(** [run_on cluster protocol] — like {!run} on a pre-built cluster; exposed
    for tests that need to inspect cluster state afterwards. *)
val run_on : Cluster.t -> Protocol.t -> report

val pp_report : Format.formatter -> report -> unit

(** The per-site stats registry as a table (one row per site plus an
    aggregate row). *)
val pp_site_stats : Format.formatter -> report -> unit
