(** Commit-time certifier for serializable snapshot isolation.

    Transactions read a snapshot as of their begin timestamp and certify at
    commit. The tracker enforces, in certification order:

    - {e snapshot validity}: every read must have been the latest committed
      version as of the begin timestamp (a lagging replica may serve an older
      version; such reads abort rather than weaken the snapshot);
    - {e first committer wins}: a write set overlapping a concurrent
      transaction that already committed aborts ([Ww_conflict]);
    - {e dangerous structures} (Cahill et al., as in PostgreSQL SSI): each
      committed transaction carries [in_c]/[out_c] flags recording incoming /
      outgoing rw-antidependencies from/to other committed transactions. A
      committing transaction aborts if it is itself a pivot (both an in- and
      an out-edge to concurrent committed transactions), or if one of its
      out-neighbours already has an out-edge, or one of its in-neighbours
      already has an in-edge — i.e. committing would complete a structure
      whose pivot already committed. Whichever member of a dangerous
      structure certifies last is aborted, so no cycle ever commits.

    Records older than the oldest active begin timestamp are garbage
    collected; {!begin_txn} must therefore be called when a transaction
    starts and {!forget} when it aborts before certification (a certified
    transaction is deregistered by {!certify} itself). GC never changes a
    verdict as long as every [begin_ts] is no earlier than the [now] of any
    earlier {!certify}: a record is evicted only at or before the oldest
    active [begin_ts], and every check ignores what committed at or before
    the certifying transaction's own [begin_ts]. *)

type txn = {
  gid : int;
  begin_ts : float;
  reads : (int * int) list;  (** (item, version observed at begin_ts). *)
  writes : int list;  (** Ascending, distinct. *)
}

type abort_cause = Stale_read | Ww_conflict | Dangerous

type verdict =
  | Commit of { commit_ts : float; writes : (int * int) list }
      (** Certified; [writes] carry the newly assigned versions. *)
  | Abort of abort_cause

type t

val create : unit -> t

(** Register an active transaction (bounds the GC window). *)
val begin_txn : t -> gid:int -> begin_ts:float -> unit

(** Deregister a transaction that will never certify. Idempotent. *)
val forget : t -> gid:int -> unit

(** [certify t ~now txn] — validate and, on success, commit [txn] at
    timestamp [now] (must not regress). Deregisters [txn.gid]. *)
val certify : t -> now:float -> txn -> verdict

(** Pin an item's (version, commit_ts) — reconfiguration resync. Like
    [now], [commit_ts] must not regress. *)
val seed : t -> item:int -> version:int -> commit_ts:float -> unit

(** {1 Introspection, for tests} *)

val dangerous_aborts : t -> int
