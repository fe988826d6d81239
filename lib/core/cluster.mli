(** Shared site runtime: one simulated distributed database instance.

    A cluster bundles the substrate a protocol runs on — simulation kernel,
    per-site stores and lock managers, per-machine CPUs, the data placement,
    the access history and the run's telemetry ({!Metrics}) — plus the
    run state ({!type-run}): the counters {!Driver} waits on for quiescence
    and {!Epoch} drains on, and the stop flag that shuts periodic processes
    down. Only this module reads those counters; everyone else asks
    {!quiescent}, {!drained} and {!in_flight}.

    State that only some runs need is declared here but owned elsewhere:
    {!type-faults} (allocated only under fault injection) by {!Fault_exec},
    {!type-epoch} by {!Epoch}. The staleness clock of bounded-staleness
    reads belongs to {!Psl}, the one protocol that reads it. *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Store = Repdb_store.Store
module Wal = Repdb_store.Wal
module Lock_mgr = Repdb_lock.Lock_mgr
module Fault = Repdb_fault.Fault
module History = Repdb_txn.History
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Stats = Repdb_obs.Stats

(** Epoch-switch state. Only {!Epoch} reads or writes it. *)
type epoch = {
  mutable config_epoch : int;
      (** Bumped once per executed switch. Propagation messages carry the
          epoch they were routed under. *)
  mutable reconfiguring : bool;  (** A switch is in progress. *)
  resume : Sim.waitq;  (** Every waiter is woken when the switch completes. *)
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

(** Fault-injection state. Allocated only when {!field:injector} is [Some];
    only {!Fault_exec} reads or writes it. *)
type faults = {
  wals : Wal.t array;
      (** Per-site redo logs, attached at creation: hooking every write has
          a cost, and fault-free runs never crash. *)
  site_up : bool array;
  up_wait : Sim.waitq array;  (** Per-site; every waiter is woken when the site restarts. *)
  mutable crashes : int;  (** Crash events executed so far. *)
  mutable partitions : int;  (** Partition windows activated so far. *)
  corrupted : (int * int, unit) Hashtbl.t;
      (** [(site, item)] replica copies scrambled by a [corrupt@] clause and
          not yet repaired; cleared by recovery and anti-entropy. *)
  mutable corruption_events : int;  (** Corruption injections executed. *)
  corrupt_ctr : Stats.counter option;
      (** ["corrupt.items"], copies scrambled (cumulative); registered only
          when [params.heal], with or without faults, so stats tables keep
          their rows. *)
}

(** Run state (quiescence and drain counters, stop flag, exhausted retries);
    read it through the functions below. *)
type run

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
      (** All telemetry: trace, per-site stats registry, spans, timeline. *)
  rng : Rng.t;  (** Workload stream; derived from [params.seed]. *)
  mutable next_gid : int;
  mutable next_attempt : int;
  injector : Fault.injector option;
      (** Built from [params.faults] when that schedule is non-empty; drives
          the networks' drop/delay behaviour and {!Fault_exec.schedule}. *)
  faults : faults option;  (** [Some] exactly when [injector] is. *)
  run : run;
  epoch : epoch;
}

(** [create params] — build the cluster; the placement is drawn from a
    generator derived from [params.seed]. Pass [~trace:true] to collect a
    structured event trace (a ring of 2^20 events; the oldest drop first)
    into {!Metrics.trace}; the per-site stats registry is always on. *)
val create : ?trace:bool -> Params.t -> t

(** [create_with ?latency params placement] — same but with a fixed placement
    (used by examples and tests that need a hand-built copy graph), and
    optionally a per-pair latency function (e.g. to model one slow link, the
    condition that exposes Example 1.1 under indiscriminate propagation).
    [trace_capacity] sizes the trace ring (default 2^20). *)
val create_with :
  ?latency:(int -> int -> float) -> ?trace:bool -> ?trace_capacity:int -> Params.t -> Placement.t -> t

(** Fresh global transaction id ({!Exec.begin_primary} draws them). *)
val fresh_gid : t -> int

(** Fresh execution-attempt id: every attempt's lock owner and history
    attempt, primary or secondary, comes from this one counter. *)
val fresh_attempt : t -> int

(** [use_cpu t site d] — consume [d] ms of the site's machine CPU (FIFO). *)
val use_cpu : t -> int -> float -> unit

(** Constant-latency function for building networks from [params.latency]. *)
val latency_fn : t -> int -> int -> float

(** [make_net t] — a fresh network wired to the cluster's simulation, latency,
    trace and stats registry, whose ["msg.sent"] counts every message. Each
    protocol builds its own typed network(s); [describe] tags traced
    messages with a kind and an approximate size in bytes. *)
val make_net : ?describe:('a -> string * int) -> t -> 'a Repdb_net.Network.t

(** [deadline t] — the absolute deadline (ms of simulated time) of a
    transaction attempt starting now: now + [params.txn_deadline], or
    [infinity] when deadlines are off. {!Exec.begin_primary} reads it as a
    protocol's first action, at the instant the driver's client starts the
    attempt. *)
val deadline : t -> float

(** {1 Quiescence}

    One outstanding token per message or piece of remote work in flight. *)

val inc_outstanding : t -> unit
val dec_outstanding : t -> unit
val client_started : t -> unit
val client_finished : t -> unit

(** [quiescent t] — no clients running and nothing outstanding. *)
val quiescent : t -> bool

(** Block until {!quiescent}, then set the stop flag. *)
val await_quiescence : t -> unit

(** Set once quiescent; periodic processes stop rescheduling. *)
val stopped : t -> bool

(** The simulated instant {!await_quiescence} set the stop flag;
    [infinity] before. *)
val stopped_at : t -> float

(** [every t period f] — until the stop flag is set: wait [period] ms, then
    run [f] (which may block). The loop of a periodic process. *)
val every : t -> float -> (unit -> unit) -> unit

(** The run-state counters that are still non-zero, as [name=value] pairs
    separated by spaces ([""] when all are zero): what keeps a run from
    quiescing. *)
val busy : t -> string

(** [in_flight ?only t] — messages in flight over every network built by
    {!make_net}, on the ordered site pairs [only] selects (default: all). *)
val in_flight : ?only:(src:int -> dst:int -> bool) -> t -> int

(** {1 Epoch-switch drains}

    {!Epoch} runs every placement change on a drained cluster; these hooks
    keep the count it drains on. *)

(** Bracket every transaction execution attempt (including retries); the
    drain condition counts attempts, not clients, because clients survive
    epoch switches. *)
val txn_started : t -> unit

val txn_finished : t -> unit

(** Transaction attempts currently executing. *)
val active_txns : t -> int

(** [drained ?parked t] — no attempt executing and nothing outstanding
    apart from the messages in flight on the pairs [parked] selects (the
    weak drain ignores traffic parked behind a down or partitioned
    endpoint). *)
val drained : ?parked:(src:int -> dst:int -> bool) -> t -> bool

(** Block until [drained t] (the strong drain). *)
val await_drained : t -> unit

(** Count one transaction that used up its [max_retries], and read the count. *)
val exhaust_retries : t -> unit

val retries_exhausted : t -> int
