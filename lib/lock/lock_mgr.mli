(** Per-site lock manager implementing strict two-phase locking.

    The variant of 2PL assumed by the paper: a transaction releases no lock
    (read or write) until after it has committed or aborted, which the
    protocols enforce by calling {!release_all} only at commit/abort.

    Granting is strictly FIFO — a new request queues behind existing waiters
    even when it is compatible with the current holders — except that
    re-entrant requests and shared-to-exclusive upgrades are served
    immediately when possible (upgrades wait at the front of the queue
    otherwise).

    Two deadlock-handling policies are provided:
    - [`Timeout d]: a wait that is not granted within [d] ms returns
      {!constructor-Timed_out}. This is the paper's mechanism (50 ms default)
      and the only one that also resolves {e distributed} deadlocks.
    - [`Detect d]: maintain the local waits-for graph; when a new wait closes
      a cycle, abort the {e latest-arriving} waiter in the cycle (the fair
      victim-selection policy suggested in Section 2 of the paper). Local
      detection cannot see distributed deadlocks, so an optional timeout
      [d] backstops waits that detection never resolves. *)

type item = int

type owner = int
(** Lock owners are (sub)transaction attempt identifiers, unique cluster-wide
    per execution attempt. [min_int] is reserved (it marks an entry with no
    exclusive holder). *)

type mode = Shared | Exclusive

type outcome =
  | Granted
  | Timed_out  (** Wait exceeded the timeout ([`Timeout] policy). *)
  | Deadlock_victim  (** Chosen as victim by detection, or woken by {!abort_waiter}. *)

type policy = [ `Timeout of float | `Detect of float option ]

type stats = {
  acquires : int;  (** Requests granted immediately or after waiting. *)
  waits : int;  (** Requests that had to block. *)
  timeouts : int;
  deadlock_aborts : int;
}

type t

(** [create ~sim ~policy ()] — a fresh lock manager for one site.

    Observability: when [trace] is enabled, every request, grant, wait,
    timeout, deadlock victimisation and release is recorded as a typed event
    tagged with [site] (default [0]); when [stats] is given, per-site
    ["lock.acq"] / ["lock.wait"] / ["lock.tmo"] / ["lock.ddl"] counters are
    registered and bumped. [on_wait ~owner ~dur] fires after every blocked
    request resolves (granted or failed) with the simulated ms it waited —
    the span layer's lock-wait attribution hook.

    [remap] maps external item ids to dense lock-table slots (default:
    identity). Under partial replication a site only ever locks the items
    placed there, so remapping to the site's placed-item rank keeps the flat
    table at |placed| entries instead of max-item-id. The function must be
    injective on the items actually locked; it may raise to flag a lock
    request for an item the site should never touch. *)
val create :
  sim:Repdb_sim.Sim.t ->
  policy:policy ->
  ?site:int ->
  ?trace:Repdb_obs.Trace.t ->
  ?stats:Repdb_obs.Stats.t ->
  ?remap:(item -> int) ->
  ?on_wait:(owner:owner -> dur:float -> unit) ->
  unit ->
  t

(** [acquire t ~owner item mode] blocks the calling process until the lock is
    granted or the wait fails. Re-entrant acquisition and S→X upgrade are
    supported. Strict 2PL: a successful [acquire] is only undone by
    {!release_all}. *)
val acquire : t -> owner:owner -> item -> mode -> outcome

(** [release_all t ~owner] releases every lock held by [owner] and cancels
    any wait it has pending, then grants newly compatible queued requests. *)
val release_all : t -> owner:owner -> unit

(** Current holders of [item] with their modes (empty if unlocked). *)
val holders : t -> item -> (owner * mode) list

(** [waiting_for t ~owner] — if [owner] is blocked, the owners it transitively
    waits behind on that item (holders plus incompatible queued-ahead
    requests); [[]] if not waiting. *)
val waiting_for : t -> owner:owner -> owner list

(** [abort_waiter t ~owner] wakes a blocked [owner] with
    {!constructor-Deadlock_victim}; no-op if it is not waiting. Used by the
    BackEdge protocol to break global deadlocks by victimising a primary that
    is parked waiting for its special subtransaction message. *)
val abort_waiter : t -> owner:owner -> bool

(** [holds t ~owner item] — does [owner] currently hold a lock on [item]? *)
val holds : t -> owner:owner -> item -> mode option

val stats : t -> stats

(** Total locks currently held (for invariant checks in tests). *)
val locks_held : t -> int

(** Requests currently blocked. *)
val lock_waiters : t -> int
