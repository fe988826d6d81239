(** Experiment harness: one entry per table/figure of the paper's evaluation
    (Section 5), plus the extra sweeps implied by the ranges of Table 1 and
    our own ablations. Each experiment runs the relevant protocols over a
    parameter sweep and returns printable series; [repdb experiment] fronts
    them. *)

module Params = Repdb_workload.Params

(** Every experiment accepts an optional [?pool]; with one, the independent
    [Driver.run]s (one per protocol x swept value) execute on its domains.
    Results are placed by input index and each run owns all of its mutable
    state, so parallel output is bit-identical to the sequential path (there
    is a test). Without [?pool] everything runs in the caller, as before. *)

type point = {
  x : float;  (** The swept parameter value. *)
  reports : (string * Driver.report) list;  (** protocol name -> report. *)
}

type figure = {
  id : string;  (** e.g. "fig2a". *)
  title : string;
  xlabel : string;
  points : point list;
}

(** [run_point params protocols x] runs every protocol at one parameter
    setting (in parallel given [?pool]) and returns the figure point for
    swept value [x]. *)
val run_point : ?pool:Repdb_par.Pool.t -> Params.t -> Protocol.t list -> float -> point

(** {1 The paper's figures} *)

(** Figure 2(a): throughput vs backedge probability, BackEdge vs PSL. *)
val fig2a : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> unit -> figure

(** Figure 2(b): throughput vs replication probability. *)
val fig2b : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> unit -> figure

(** Figure 3(a): throughput vs read-op probability at [b = 0], [r = 0.5],
    no read-only transactions. *)
val fig3a : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> unit -> figure

(** Figure 3(b): same sweep at [b = 1]. *)
val fig3b : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> unit -> figure

(** Section 5.3.4: response times and propagation delay at the defaults. *)
val response_times : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> (string * Driver.report) list

(** {1 Table 1 range sweeps (tech-report experiments)} *)

val sweep_sites : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure
val sweep_threads : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure
val sweep_latency : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure
val sweep_read_txn : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> unit -> figure

(** {1 Ablations} *)

(** All six protocols at the defaults, over a DAG copy graph ([b = 0]) so the
    DAG protocols are applicable. *)
val ablation_protocols : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> (string * Driver.report) list

(** Eager, centralized certification and lazy-master vs the lazy protocols as
    sites grow — the introduction's "eager does not scale" claim plus
    Section 1.2's "the central site becomes a bottleneck". *)
val ablation_eager_scaling : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Chain-tree BackEdge (the paper's evaluated variant) vs the general
    per-component tree (Section 5.1 expects the latter to win) across the
    backedge-probability sweep. *)
val ablation_tree_routing : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> unit -> figure

(** The paper's 50 ms timeout vs local waits-for-graph detection (with the
    timeout kept as a distributed-deadlock backstop), at the defaults. *)
val ablation_deadlock_policy : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> (string * Driver.report) list

(** DAG(T) propagation delay as the dummy-subtransaction idle threshold
    varies — the cost of the Section 3.3 progress machinery ([b = 0]). *)
val ablation_dummy_period : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Hotspot skew: BackEdge vs PSL as the probability of hitting the hot 20%
    of each site's pool grows — contention beyond the paper's uniform
    workload. *)
val ablation_hotspot : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Straggler machine: one machine's CPU slowed by a growing factor. The
    centralized certifier (whose central site lives on the straggler)
    collapses; the decentralized lazy protocols degrade gracefully. *)
val ablation_straggler : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Site ordering (Section 4.2 in protocol form): a hub site that replicates
    reference data to every spoke. If the hub is numbered last, every copy-
    graph edge is a backedge and each of its updates runs the eager path; a
    feedback-arc-set-derived order puts the hub first and makes the whole
    graph forward. Compares BackEdge under the identity order vs the
    [Backedge.greedy_fas]-derived order on that topology. *)
val ablation_site_order : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> (string * Driver.report) list

(** Fault sweep: BackEdge, DAG(WT) and PSL ([b = 0] so the copy graph is a
    DAG) under 0 / 1 / 2 / 4 / 8 injected site crashes drawn by
    [Fault.synthetic] from the run seed. Throughput degrades with downtime
    while the avg_propagation column shows the convergence lag the
    retransmitting links introduce; every run still converges and (with
    [record_history]) stays serializable. *)
val sweep_faults : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Online-reconfiguration sweep: BackEdge, DAG(WT) and PSL ([b = 0]) under
    0 / 1 / 2 / 4 / 8 synthetic add/drop/rebalance steps drawn by
    [Reconfig.synthetic] from the run seed and executed live mid-run. The
    reconfig_stall_ms CSV column is the aggregate mid-run throughput dip;
    every run still converges and (with [record_history]) multi-epoch
    histories stay serializable. *)
val sweep_reconfig : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Partition sweep: BackEdge, DAG(WT) and PSL ([b = 0]) under a clean
    two-way split of the sites (first half vs second half) lasting
    0 / 250 / 500 / 1000 / 2000 ms from t = 100 ms. All runs arm a 250 ms
    transaction deadline, the default backoff retry policy and a 60 s
    bounded-staleness read fallback, so the figure shows graceful
    degradation: deadline/partitioned aborts and unavailability grow with
    the split's duration while PSL serves bounded-stale local reads; every
    run converges after heal. *)
val sweep_partition : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Contention sweep: the optimistic protocols (occ-epoch, ssi) against
    BackEdge, DAG(WT) and PSL ([b = 0]) as the Zipf skew of item selection
    grows (theta = 0 / 0.5 / 0.7 / 0.9 / 0.99). At low skew optimistic
    execution wins on commit rate; under heavy skew it pays with validation
    aborts instead of lock waits — visible in the per-reason abort columns
    ([aborts_validation_failed], [aborts_first_committer_lost],
    [aborts_dangerous_structure] vs [aborts_lock_timeout] /
    [aborts_deadlock]). *)
val sweep_occ : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Self-healing sweep: MTTR, failovers and repairs vs the φ suspicion
    threshold (2 / 4 / 8 / 16 / 32) under a fixed
    crash-the-primary-plus-corruption schedule with healing on and no
    operator-scheduled recovery. [b = 0] keeps DAG(WT) applicable alongside
    BackEdge and PSL; deadline + retry keep the failover drain bounded. The
    trade-off lands in the [mttr_ms] / [unavail_ms] columns: low thresholds
    detect fast but risk false failovers, high ones sit through the
    outage. *)
val sweep_heal : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Seed variance: BackEdge and PSL at the defaults under seeds 42-46 (the x
    axis is the seed, so [base.seed] is ignored) — the noise band around the
    single-run figures. *)
val seed_variance : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> figure

(** Production-size partial replication on the compact placement layer:
    BackEdge ([b = 0.2]), DAG(WT) ([b = 0]) and PSL ([b = 0.2]) at 200 sites
    x 100k items, [r = 0.5], [s = 6/m], one thread per site and
    [max 3 (m/8)] machines. Site and item counts override [base]. *)
val large_scale : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> unit -> (string * Driver.report) list

(** {1 Registry} *)

(** What an experiment produces: a swept figure, or a flat list of labelled
    reports. *)
type outcome = Figure of figure | Reports of (string * Driver.report) list

type entry = {
  exp_id : string;  (** The CLI name, e.g. "fig2a". *)
  doc : string;  (** One-line description for help text. *)
  run : pool:Repdb_par.Pool.t option -> base:Params.t -> steps:int -> outcome;
      (** Runners without a step-count knob ignore [steps]. *)
}

(** Every experiment, in presentation order. The CLI derives both its help
    text and its dispatch from this list so the two cannot drift. *)
val registry : entry list

val ids : string list
val find : string -> entry option

(** [timeline_files outcome] — every run timeline the outcome collected
    (present when the base parameters had [timeline_every > 0]), paired with
    a filesystem-safe basename ([<figure>_x<value>_<protocol>] for figures,
    the report label for flat report lists). The CLI writes each as
    [<basename>.csv] under [--timeline-dir]. *)
val timeline_files : outcome -> (string * Repdb_obs.Timeline.t) list

(** {1 Rendering} *)

val pp_figure : Format.formatter -> figure -> unit
val pp_reports : Format.formatter -> (string * Driver.report) list -> unit

(** CSV text (one line per point and protocol:
    [figure,x,protocol,throughput_per_site,abort_rate,avg_response,p99_response,avg_propagation,messages,reconfigs,state_transfers,reconfig_stall_ms,<aborts_* columns>,stale_reads,max_staleness_ms,unavail_ms]
    where the [aborts_*] block has one count column per
    {!Repdb_txn.Txn.abort_reason} constructor in
    [Txn.all_abort_reasons] order, e.g. [aborts_lock_timeout] ...
    [aborts_dangerous_structure]). *)
val to_csv : figure -> string

(** ASCII plot of per-site throughput against the swept parameter, one glyph
    per protocol — a terminal rendition of the paper's figures. *)
val render_ascii : figure -> string
