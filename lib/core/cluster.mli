(** Shared site runtime: one simulated distributed database instance.

    A cluster bundles the substrate a protocol runs on — simulation kernel,
    per-site stores and lock managers, per-machine CPUs, the data placement,
    the access history and the run's telemetry ({!Metrics}) — plus the
    bookkeeping {!Driver} needs to detect quiescence (outstanding in-flight
    work, running clients, the stop flag that shuts periodic processes
    down).

    State that only some runs need is declared here but owned elsewhere:
    {!type-faults} (allocated only under fault injection) by {!Fault_exec},
    {!type-epoch} by {!Epoch}. The staleness clock of bounded-staleness
    reads belongs to {!Psl}, the one protocol that reads it. *)

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
module Stats = Repdb_obs.Stats

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

(** Fault-injection state. Allocated only when {!field:injector} is [Some];
    only {!Fault_exec} reads or writes it. *)
type faults = {
  wals : Wal.t array;
      (** Per-site redo logs, attached at creation: hooking every write has
          a cost, and fault-free runs never crash. *)
  site_up : bool array;
  up_cv : Condvar.t array;  (** Per-site; broadcast when the site restarts. *)
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
  mutable outstanding : int;  (** In-flight messages / pending remote work. *)
  mutable clients_running : int;
  mutable stopped : bool;  (** Set once quiescent; periodic processes exit. *)
  quiesced : Condvar.t;  (** Broadcast on transitions relevant to quiescence. *)
  injector : Fault.injector option;
      (** Built from [params.faults] when that schedule is non-empty; drives
          the networks' drop/delay behaviour and {!Fault_exec.schedule}. *)
  faults : faults option;  (** [Some] exactly when [injector] is. *)
  mutable deadline_at : float;
      (** Absolute deadline of the submit being started, armed by the client
          immediately before [submit]; protocols capture it at entry (there
          is no blocking point in between, so the handoff never mixes
          transactions). [infinity] when deadlines are off. *)
  mutable active_txns : int;  (** Transaction attempts currently executing. *)
  mutable inflight_fns : ((src:int -> dst:int -> bool) -> int) list;
      (** Per network: in-flight messages on the pairs a predicate
          selects — every pair for the timeline, parked ones for the weak
          drain. *)
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

(** Fresh global transaction id. *)
val fresh_gid : t -> int

(** Fresh execution-attempt id (lock owner). *)
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

(** {1 Per-transaction deadlines} *)

(** Arm {!field:deadline_at} for the submit about to start: now +
    [params.txn_deadline], or [infinity] when deadlines are disabled. Called
    by the driver's client immediately before each attempt. *)
val arm_deadline : t -> unit

(** The currently armed absolute deadline (ms of simulated time). *)
val deadline_at : t -> float

(** {1 Quiescence accounting} *)

val inc_outstanding : t -> unit
val dec_outstanding : t -> unit
val client_started : t -> unit
val client_finished : t -> unit

(** [quiescent t] — no clients running and nothing outstanding. *)
val quiescent : t -> bool

(** Block until {!quiescent}, then set [stopped]. *)
val await_quiescence : t -> unit

(** {1 Epoch-switch drain accounting}

    {!Epoch} runs every placement change on a drained cluster; these hooks
    keep the count it drains on. *)

(** Bracket every transaction execution attempt (including retries); the
    drain condition counts attempts, not clients, because clients survive
    epoch switches. *)
val txn_started : t -> unit

val txn_finished : t -> unit
