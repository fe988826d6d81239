(** Common building blocks for executing (sub)transactions at a site.

    Writes are deferred: during execution a transaction only acquires locks
    (exclusive for writes, shared for reads), charges CPU and records the
    access in the history; the store is modified at commit time, so aborts
    need no undo. Strict 2PL holds because locks are only released by
    {!commit_local}, {!commit_secondary} and {!abort_local}.

    The replica side of propagation is shared here too: every protocol
    applies pushed updates through {!apply_secondary} (or, optimistic ones,
    {!versioned_applier}) and picks direct destinations with {!fan_out}, so
    propagation delay, lag and trace events are recorded the same way. *)

module Txn = Repdb_txn.Txn

(** [run_ops ?on_read c ~gid ~attempt ~site ops] executes [ops] locally: for
    each operation, acquire the lock, charge [cpu_op], record the access;
    every value read is passed to [on_read]. On lock failure returns
    [Error reason] with all locks still held — the caller must
    {!abort_local}. *)
val run_ops :
  ?on_read:(int -> Repdb_store.Value.t -> unit) ->
  Cluster.t ->
  gid:int ->
  attempt:int ->
  site:int ->
  Txn.op list ->
  (unit, Txn.abort_reason) result

(** [acquire_writes c ~gid ~attempt ~site items] — the secondary-
    subtransaction variant of {!run_ops}: exclusive locks + [cpu_op] + W
    records for each item, which must all be placed at [site]. *)
val acquire_writes :
  Cluster.t ->
  gid:int ->
  attempt:int ->
  site:int ->
  int list ->
  (unit, Txn.abort_reason) result

(** [apply_writes c ~gid ~site items] — install the deferred writes into the
    site store (no locking; caller holds the exclusive locks). *)
val apply_writes : Cluster.t -> gid:int -> site:int -> int list -> unit

(** [commit_cost ?owner c ~site] — charge [cpu_commit] (blocking). Call
    {e before} the atomic commit section. When [owner] (a client attempt id
    previously linked by {!Metrics.txn_begin}) is given, the charged time
    is attributed to that transaction's commit phase span. *)
val commit_cost : ?owner:int -> Cluster.t -> site:int -> unit

(** [release c ~attempt ~site] — release every lock of [attempt]. *)
val release : Cluster.t -> attempt:int -> site:int -> unit

(** [commit_local c ~gid ~attempt ~site writes] — commit a primary
    transaction: {!commit_cost} (attributed to [attempt]), then atomically
    apply [writes], emit the commit event and release the locks. *)
val commit_local : Cluster.t -> gid:int -> attempt:int -> site:int -> int list -> unit

(** [abort_local c ~attempt ~site] — discard the attempt's recorded accesses
    and release its locks. *)
val abort_local : Cluster.t -> attempt:int -> site:int -> unit

(** {1 Secondary subtransactions} *)

(** [lock_secondary ?on_retry c ~gid ~site items] — lock [items] for a
    secondary and return the holding attempt id. A failed round (timeout or
    deadlock) aborts the attempt, runs [on_retry] and retries with a fresh
    one: a secondary must eventually commit. *)
val lock_secondary :
  ?on_retry:(unit -> unit) -> Cluster.t -> gid:int -> site:int -> int list -> int

(** [commit_secondary c ~gid ~attempt ~site ~origin_commit items] — apply the
    writes, release the locks and {!Metrics.propagation} the delay
    since [origin_commit]. Never blocks. *)
val commit_secondary :
  Cluster.t -> gid:int -> attempt:int -> site:int -> origin_commit:float -> int list -> unit

(** [apply_secondary ?on_retry c ~gid ~site ~origin_commit items] —
    {!lock_secondary}, {!commit_cost}, {!commit_secondary}; nothing when
    [items = []]. Nothing blocks after the commit, so what the caller does
    right after the call (forwarding, stamping) is still inside the atomic
    commit section. *)
val apply_secondary :
  ?on_retry:(unit -> unit) ->
  Cluster.t ->
  gid:int ->
  site:int ->
  origin_commit:float ->
  int list ->
  unit

(** {1 Direct fan-out} *)

(** [fan_out c ~site items send] — {!Metrics.destined} [items], call
    [send dst] for each site other than [site] holding a replica of some
    item, and return the number of destinations. *)
val fan_out : Cluster.t -> site:int -> int list -> (int -> unit) -> int

(** A committed write set on its way to the replicas (naive, central). *)
type update = { gid : int; writes : int list; origin_commit : float }

(** [send_updates c net ~site ~gid writes] — at origin commit, send one
    {!update} over [net] to every replica site of [writes] ({!fan_out}),
    then charge [site] one [cpu_msg] per destination. *)
val send_updates :
  Cluster.t -> update Repdb_net.Network.t -> site:int -> gid:int -> int list -> unit

(** [update_applier c net site] — [site]'s applier process: receive updates
    from [net] in FIFO order, charging [cpu_msg] each, and {!apply_secondary}
    the locally placed items. Never returns. *)
val update_applier : Cluster.t -> update Repdb_net.Network.t -> int -> unit

(** {1 Versioned updates (optimistic protocols)} *)

type versioned_update = {
  u_gid : int;
  u_writes : (int * int) list;  (** (item, version) in commit order *)
  u_commit_ts : float;  (** certification timestamp (SSI's version chains) *)
  u_origin_commit : float;
  u_epoch : int;
}

(** Called for every installed version, at the origin and at each replica. *)
type on_install = site:int -> item:int -> version:int -> commit_ts:float -> unit

(** [commit_versioned ?on_install c net ~site ~gid ~commit_ts vwrites] —
    charge [cpu_commit], install the certified versions at the origin
    primary [site], emit the commit event and send them over [net] as
    {!send_updates} does. *)
val commit_versioned :
  ?on_install:on_install ->
  Cluster.t ->
  versioned_update Repdb_net.Network.t ->
  site:int ->
  gid:int ->
  commit_ts:float ->
  (int * int) list ->
  unit

(** [versioned_applier ?on_install c net site] — [site]'s applier process:
    install each update's versions of locally placed items, in FIFO order.
    Never returns. *)
val versioned_applier :
  ?on_install:on_install -> Cluster.t -> versioned_update Repdb_net.Network.t -> int -> unit
