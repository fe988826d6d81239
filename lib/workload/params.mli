(** Experiment parameters — Table 1 of the paper, plus the simulation cost
    model that replaces the paper's physical testbed.

    Paper defaults: 9 sites, 200 items, replication probability 0.2, site
    probability 0.5, backedge probability 0.2, 10 operations per transaction,
    3 threads per site, 1000 transactions per thread, read-operation
    probability 0.7, read-transaction probability 0.5, ~0.15 ms network
    latency, 50 ms deadlock timeout. *)

(** What a client does with an aborted transaction. [Backoff] re-submits
    after a capped exponential delay: retry [k] (0-based) waits
    [min cap (base * multiplier^k)] ms, scaled by a jitter factor in
    [0.5, 1.0) drawn from a dedicated per-client seeded RNG stream — so
    retries never perturb the workload streams and runs stay byte-identical
    across repeats and [-j] levels. After [max_retries] failures the
    transaction is abandoned (counted as its final abort). *)
type retry_policy =
  | No_retry
  | Backoff of { base : float; multiplier : float; cap : float; max_retries : int }

(** 1 ms base, doubling, 64 ms cap, 1000 retries — effectively
    "retry until it commits" for any realistic run. *)
val default_backoff : retry_policy

type t = {
  (* Table 1 *)
  n_sites : int;  (** [m]; default 9, range 3–15. *)
  n_items : int;  (** [n]; default 200. *)
  replication_prob : float;  (** [r]; default 0.2, range 0–1. *)
  site_prob : float;  (** [s]; default 0.5. *)
  backedge_prob : float;  (** [b]; default 0.2, range 0–1. *)
  ops_per_txn : int;  (** Default 10. *)
  threads_per_site : int;  (** Default 3, range 1–5. *)
  txns_per_thread : int;  (** Paper 1000; default here 300 to keep runs fast. *)
  read_op_prob : float;  (** Default 0.7, range 0–1. *)
  read_txn_prob : float;  (** Default 0.5, range 0–1. *)
  hot_access_prob : float;
      (** Probability that an operation targets the hot set, the first
          20% of each site's item pool; 0 (default) keeps the paper's
          uniform access. *)
  zipf_theta : float;
      (** Zipf skew for item selection, in [0,1). 0 (default) keeps the
          uniform / hotspot scheme; > 0 draws items rank-weighted by
          [1/(rank+1)^theta] over the site's (sorted) pool, so low item ids
          become contention hot keys. Composes with neither knob:
          [hot_access_prob] is ignored when [zipf_theta > 0]. *)
  latency : float;  (** One-way network latency, ms; default 0.15, range 0.15–100. *)
  lock_timeout : float;  (** Deadlock timeout, ms; default 50. *)
  deadlock_policy : [ `Timeout | `Detect ];
      (** [`Timeout] (the paper's mechanism, using [lock_timeout]) or local
          waits-for-graph [`Detect]ion with latest-arrival victims. Note that
          only timeouts resolve distributed deadlocks, so protocols with
          cross-site waits (PSL, Eager, BackEdge) keep a timeout fallback:
          [`Detect] applies it on top of detection. *)
  (* Simulation cost model (substitutes for the UltraSparc testbed) *)
  n_machines : int;  (** Sites share machine CPUs round-robin; default 3. *)
  straggler_machine : int;
      (** Machine whose CPU runs slow, or -1 (default) for none. *)
  straggler_factor : float;
      (** CPU slowdown of the straggler machine (default 1.0). *)
  cpu_op : float;  (** CPU per local read/write op, ms. *)
  cpu_commit : float;  (** CPU per (sub)transaction commit, ms. *)
  cpu_msg : float;  (** CPU to send or receive one message, ms. *)
  (* Harness *)
  seed : int;  (** RNG seed; every run is deterministic in it. *)
  retry : retry_policy;  (** Default {!No_retry}, as in the paper. *)
  txn_deadline : float;
      (** Per-transaction deadline, ms of simulated time per execution
          attempt, covering the eager distributed phase (BackEdge's special
          wait, PSL remote reads). 0 (default) disables; an expired deadline
          aborts with {!Repdb_txn.Txn.Deadline_exceeded}. *)
  stale_reads : float;
      (** PSL only: when > 0, a remote read whose primary is unreachable
          behind a partition falls back to the local replica provided its
          staleness is within this bound. Staleness is ms since PSL last
          committed a write to that copy; PSL applies no updates at replicas,
          so for a copy it never wrote that is the time since the run
          started. The clock is allocated by PSL alone, only when this is
          > 0. Such reads sit outside the 1SR guarantee and are excluded
          from the checked history; count and max staleness are reported in
          metrics. 0 (default) disables the fallback. *)
  record_history : bool;  (** Record accesses for the serializability checker. *)
  (* DAG(T) progress machinery *)
  epoch_period : float;  (** Sources bump their epoch every this many ms. *)
  dummy_idle : float;  (** Send a dummy subtransaction after this idle time, ms. *)
  (* Fault injection *)
  faults : Repdb_fault.Fault.schedule;
      (** Site crash/restart and link drop/delay schedule the run must
          survive; {!Repdb_fault.Fault.empty} (the default) disables
          injection entirely. *)
  (* Online reconfiguration *)
  reconfig : Repdb_reconfig.Reconfig.plan;
      (** Copy-graph reconfiguration steps executed live by the epoch-based
          coordinator; {!Repdb_reconfig.Reconfig.empty} (the default) keeps
          the topology static. *)
  (* Observability *)
  timeline_every : float;
      (** Timeline sampling interval, ms; 0 (the default) disables the
          ticker and the per-run timeline entirely. *)
  (* Optimistic concurrency (occ-epoch) *)
  occ_epoch_ms : float;
      (** Epoch boundary period for the occ-epoch protocol, simulated ms
          (default 10): optimistic transactions buffer at their site and are
          sent for validation in one batch per site per epoch. *)
  (* Self-healing (lib/heal) *)
  heal : bool;
      (** Enable the self-healing subsystem: the heartbeat-driven φ-accrual
          failure detector, automatic primary failover through the epoch
          machinery, and background anti-entropy repair. Default false — all
          healing machinery (and its stats/timeline columns) stays off. *)
  phi_threshold : float;
      (** φ-accrual suspicion threshold (default 8). A site is suspected once
          a majority of its peers' φ values for it cross this; lower values
          detect faster but false-positive under latency jitter. *)
}

val default : t

(** Paper parameter rows as [(name, symbol, default, range)] — the content of
    Table 1, printed by [repdb table1]. *)
val table1 : t -> (string * string * string * string) list

val pp : Format.formatter -> t -> unit

(** Sanity-check ranges (probabilities in [0,1], positive counts, finite
    floats — NaN and infinity are rejected everywhere).
    @raise Invalid_argument when out of range. *)
val validate : t -> unit
