(** The DAG(T) protocol — "DAG with Timestamps" (Section 3).

    Requires an acyclic copy graph. Updates travel {e directly} along copy-
    graph edges, avoiding DAG(WT)'s multi-hop routing. Every primary
    subtransaction is stamped at commit with its site's timestamp — a vector
    of (site, counter) tuples plus an epoch number — and every site executes
    the secondary subtransactions waiting at the heads of its per-parent
    queues in timestamp order, choosing the minimum only when {e every}
    queue is non-empty.

    Progress machinery (Section 3.3): source sites increment their epoch
    periodically, and a site that has not sent anything to a child for a
    while sends a {e dummy} secondary subtransaction that merely pushes the
    child's site timestamp forward. *)

include Protocol.S

(** The relaxation Section 3.2.3 alludes to ("this assumption can be easily
    relaxed"): several secondary subtransactions execute concurrently at a
    site. Dispatch and commit still follow timestamp order — a worker may
    start locking only when it is the oldest pending secondary on every item
    it writes, and commits are serialised by dispatch ticket — so the site
    timestamp evolves exactly as in the serial applier. *)
val create_pipelined : Cluster.t -> t

(** Current site timestamp (for tests/examples). *)
val site_timestamp : t -> int -> Timestamp.t
