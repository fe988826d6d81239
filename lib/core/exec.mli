(** Common building blocks for executing (sub)transactions at a site.

    Writes are deferred: during execution a transaction only acquires locks
    (exclusive for writes, shared for reads), charges CPU and records the
    access in the history; the store is modified at commit time, so aborts
    need no undo. Strict 2PL holds because locks are only released by
    {!commit_local}, {!commit_secondary}, {!abort_local}, {!finish_staged}
    and a [Release].

    The replica side of propagation is shared here too: every protocol
    applies pushed updates through {!apply_secondary} (or, optimistic ones,
    {!versioned_applier}) and picks direct destinations with {!fan_out}, so
    propagation delay, lag and trace events are recorded the same way. *)

module Txn = Repdb_txn.Txn

(** [request c net ~src ~dst ~deadline ~expired reply msg] — take an
    outstanding token, send [msg] from [src] to [dst] and block on [reply],
    the one-shot wait that [msg] carries: the receiving side {!Sim.fire}s it
    with the answer and gives the token back. Returns the answer. A finite
    [deadline] (absolute simulated time; [infinity] for none) arms a timer
    that fires [expired] at [deadline] unless the answer came first; a late
    answer's fire then loses and is dropped. The caller charges its CPU and
    checks the deadline before. *)
val request :
  Cluster.t -> 'm Repdb_net.Network.t -> src:int -> dst:int -> deadline:float -> expired:'r ->
  'r Repdb_sim.Sim.once -> 'm -> 'r

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

(** [run_op c ~gid ~attempt ~site op] — {!run_ops} of the one operation
    [op], without building a list for it. *)
val run_op :
  Cluster.t -> gid:int -> attempt:int -> site:int -> Txn.op -> (unit, Txn.abort_reason) result

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

(** [abort_local c ~attempt ~site] — discard the attempt's recorded accesses
    and release its locks. *)
val abort_local : Cluster.t -> attempt:int -> site:int -> unit

(** {1 Primary attempts}

    Every protocol's [submit] starts its attempt with {!begin_primary} and
    aborts it with {!abort_primary}: ids, spans and abort bookkeeping are
    written here once. *)

(** One client attempt of a primary transaction at its origin [site]. [gid]
    names the transaction in the history; [attempt] is its lock owner and
    history attempt at every site it touches, remote primaries included.
    [deadline_at] is {!Cluster.deadline} at the start. *)
type primary = private { gid : int; attempt : int; site : int; deadline_at : float }

(** [begin_primary c ~site] reads {!Cluster.deadline}, draws
    {!Cluster.fresh_gid} then {!Cluster.fresh_attempt} and opens the spans
    ({!Metrics.txn_begin}). *)
val begin_primary : Cluster.t -> site:int -> primary

(** [commit_local c a writes] — commit the attempt at its origin:
    {!commit_cost} (attributed to [a.attempt]), then atomically apply
    [writes], emit the commit event and release the locks. *)
val commit_local : Cluster.t -> primary -> int list -> unit

(** [abort_primary ?cleanup c a reason] traces the deadline when [reason] is
    [Deadline_exceeded], runs {!abort_local} at the origin, then [cleanup]
    (releasing remote locks, withdrawing staged participants), closes the
    spans ({!Metrics.txn_abort}) and returns [Aborted reason]. *)
val abort_primary :
  ?cleanup:(unit -> unit) -> Cluster.t -> primary -> Txn.abort_reason -> Txn.outcome

(** {1 Remote participants}

    PSL, lazy-master and eager share one round trip: a primary attempt asks
    a remote site for a lock, the site replies, and a release or the
    protocol's decide gives the lock back. *)

(** A remote participant's answer, as its requester sees it: [Expired] is
    the requester's own deadline timer, never sent. *)
type answer = Granted | Denied | Expired

(** The messages of such a network; ['x] are the protocol's own. No message
    holds a function: a request carries the wait its requester parks on. *)
type 'x remote =
  | Lock of { item : int; txn : primary; reply : answer Repdb_sim.Sim.once }
      (** Sent through {!request}: lock [item] for [txn.attempt]. *)
  | Reply of { answer : answer; reply : answer Repdb_sim.Sim.once }
      (** A grant, denial or ack, fired into the request's [reply]. *)
  | Release of { owner : int }
  | Own of 'x

(** [serve_remote c net mode ~on_grant ~own] serves [net] at every site. A
    [Lock] spawns a process that charges [cpu_msg], acquires the lock in
    [mode], runs [on_grant ~site ~item txn] if granted and sends the
    [Reply]. A [Reply] gives back {!request}'s outstanding token and fires
    its wait, which a requester whose deadline already fired ignores. A
    [Release] spawns a process that charges [cpu_msg], releases the owner's
    locks and gives back {!notify}'s token. [Own x] runs [own ~site ~src x]
    on the serving process. *)
val serve_remote :
  Cluster.t -> 'x remote Repdb_net.Network.t -> Repdb_lock.Lock_mgr.mode ->
  on_grant:(site:int -> item:int -> primary -> unit) -> own:(site:int -> src:int -> 'x -> unit) ->
  unit

(** [notify c net ~src sites msg] takes an outstanding token and sends [msg]
    from [src] to each of [sites], in order. Allocates nothing. *)
val notify : Cluster.t -> 'm Repdb_net.Network.t -> src:int -> int list -> 'm -> unit

(** [lock_remote c net a ~dst ~deadline item] — {!request} [dst] to lock
    [item] for [a] ([Lock]) and return its answer; [Expired] only for a
    finite [deadline]. *)
val lock_remote :
  Cluster.t -> 'x remote Repdb_net.Network.t -> primary -> dst:int -> deadline:float -> int ->
  answer

(** [release_remote c net a sites] — {!notify} [sites] to release [a]'s
    locks there. *)
val release_remote : Cluster.t -> 'x remote Repdb_net.Network.t -> primary -> int list -> unit

(** [finish_staged c ~gid ~attempt ~site ~commit ~origin_commit items] ends
    a participant that staged [items]: on commit {!apply_writes} them and
    {!Metrics.propagation} the delay since [origin_commit], else discard the
    attempt's accesses; then release its locks. *)
val finish_staged :
  Cluster.t -> gid:int -> attempt:int -> site:int -> commit:bool -> origin_commit:float ->
  int list -> unit

(** {1 Secondary subtransactions} *)

(** [lock_secondary ?on_retry c ~gid ~site items] — lock [items] for a
    secondary and return the holding attempt id. A failed round (timeout or
    deadlock) aborts the attempt, runs [on_retry site items] and retries
    with a fresh one: a secondary must eventually commit. *)
val lock_secondary :
  ?on_retry:(int -> int list -> unit) -> Cluster.t -> gid:int -> site:int -> int list -> int

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
  ?on_retry:(int -> int list -> unit) ->
  Cluster.t ->
  gid:int ->
  site:int ->
  origin_commit:float ->
  int list ->
  unit

(** {1 Destination sets}

    One site's sends to several sites at one simulated instant go in
    ascending site id: the paper orders only each pair's FIFO link, and this
    order fixes every later same-instant tie. Both helpers are stateless, so
    a set may live across blocking calls (a push awaiting its ack, a remote
    read) while other attempts build their own. *)

(** [fan_out c ~site items send] — {!Metrics.destined} [items], call
    [send dst] for each site [dst <> site] holding a replica of some item,
    in ascending [dst], and return the number of destinations. *)
val fan_out : Cluster.t -> site:int -> int list -> (int -> unit) -> int

(** [add_site s sites] — the participant set [sites] (ascending, duplicate
    free) with [s] added; [sites] itself when [s] is already in it. Iterate
    the result to release, prepare or decide its participants in order; its
    length is their count. *)
val add_site : int -> int list -> int list

(** A committed write set on its way to the replicas (naive, central). *)
type update = { gid : int; writes : int list; origin_commit : float }

(** [send_updates c net ~site ~gid writes] — at origin commit, send one
    {!update} over [net] to every replica site of [writes] ({!fan_out}),
    then charge [site] one [cpu_msg] per destination. *)
val send_updates :
  Cluster.t -> update Repdb_net.Network.t -> site:int -> gid:int -> int list -> unit

(** [update_applier c net site] spawns [site]'s applier process
    ({!Repdb_net.Network.serve}): receive updates from [net] in FIFO order,
    charging [cpu_msg] each, and {!apply_secondary} the locally placed
    items. *)
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

(** [versioned_applier ?on_install c net site] spawns [site]'s applier
    process ({!Repdb_net.Network.serve}): install each update's versions of
    locally placed items, in FIFO order. *)
val versioned_applier :
  ?on_install:on_install -> Cluster.t -> versioned_update Repdb_net.Network.t -> int -> unit
