(** The BackEdge protocol (Section 4), extending DAG(WT) to arbitrary copy
    graphs.

    A propagation tree [T] is built so that for every copy-graph edge
    [si -> sj], [sj] is either a descendant of [si] in [T] (a DAG edge,
    handled lazily exactly as in DAG(WT)) or an ancestor (a {e backedge},
    handled eagerly). A transaction [Ti] at site [si] whose updates have
    replicas at ancestor sites (its {e backedge targets}):

    + executes locally, holding its locks without committing;
    + sends a backedge subtransaction directly to the farthest target [si1]
      (the one closest to the root), which executes, holds its locks, and
      does not commit;
    + the subtransaction then forwards a {e special} secondary subtransaction
      down the tree path from [si1] towards [si]; every target on the path
      executes it (locks held, uncommitted) and forwards it, in FIFO order
      with the normal secondaries;
    + when the special reaches [si] — hence every secondary received before
      it has committed there — [Ti] and all backedge subtransactions commit
      atomically and release their locks;
    + [Ti]'s remaining updates propagate lazily down the tree, exactly as in
      DAG(WT).

    The lazy half is {!Tree_channel}, the one DAG(WT) uses: updates and
    specials share its FIFO links, epoch fence and appliers. This module
    adds the special message, the direct network of the eager phase,
    victimisation and the primary's wait.

    Global deadlocks (Example 4.1) are broken by victimising, on a lock-wait
    timeout, any blocker that is a primary parked waiting for its special
    message, or — via a failure notice to its origin — a backedge
    subtransaction holding staged locks. Transactions without backedge
    targets execute exactly as in DAG(WT).

    {!create} uses the variant evaluated in the paper (Section 5.1): [T] is
    the chain connecting sites adjacent in the total site order, so an edge
    [si -> sj] with [j < i] is a backedge. {!create_general} instead deletes
    a minimal DFS backedge set and chains each weakly-connected component of
    the residual DAG separately — the "general implementation" the paper
    expects to outperform the evaluated one.

    {b Timeout derivation.} Two safety nets sit on top of victimisation, both
    derived from the parameters rather than hard-coded:

    - {e origin wait} — how long a parked primary waits per round for its
      special message: [2 * max 1 (n_sites - 1) * (lock_timeout + latency)].
      The special traverses at most [n_sites - 1] tree hops, and each hop can
      burn one lock-timeout round (the participant's wait before
      victimisation frees it) plus one link latency; the factor 2 covers the
      direct [Exec_request] hop and queueing behind normal secondaries. At
      the defaults (9 sites, 50 ms lock timeout, 0.15 ms latency) this is
      ~802 ms — the same order as the old hard-coded [40 * lock_timeout] but
      it now scales with cluster size. When a transaction deadline is armed
      ({!Repdb_workload.Params.t.txn_deadline}) the wait is clamped to the
      time remaining and the abort reason becomes
      {!Repdb_txn.Txn.abort_reason.Deadline_exceeded}.
    - {e participant retry cap} — how many lock-wait rounds a backedge
      subtransaction retries before sending [Exec_failed] to its origin:
      [ceil (origin_wait / lock_timeout) + 1], i.e. a participant never
      outlives its origin's patience — by then the origin has aborted and the
      retries are wasted work.

    If a backedge target is unreachable (a scheduled network partition
    separates it from the origin), [submit] fails fast with
    {!Repdb_txn.Txn.abort_reason.Partitioned} before sending anything,
    instead of burning the full origin wait. *)

include Protocol.S

(** Build with the general (per-component) tree; see above. *)
val create_general : Cluster.t -> t

(** [create_with_order cluster order] — chain the sites in the given
    permutation; copy-graph edges going backward in [order] become backedges.
    A good order (e.g. one derived from {!Repdb_graph.Backedge.greedy_fas})
    can drastically cut the number of backedge subtransactions — the
    Section 4.2 optimisation.
    @raise Invalid_argument if [order] is not a permutation of the sites. *)
val create_with_order : Cluster.t -> int array -> t

(** [create_with_tree cluster tree] — explicit tree; every copy-graph edge
    [(u, v)] must have [v] a descendant or an ancestor of [u] in [tree].
    @raise Invalid_argument otherwise. *)
val create_with_tree : Cluster.t -> Repdb_graph.Tree.t -> t

(** The propagation tree in use. *)
val tree : t -> Repdb_graph.Tree.t

(** Copy-graph edges treated as backedges under the tree in use. *)
val backedges : t -> (int * int) list
