(** Global (one-copy) serializability checker.

    Builds the serialization graph over {e global} transaction ids: for every
    site and item, consecutive conflicting committed accesses (read-write,
    write-read, write-write by different transactions) induce an edge from
    the earlier transaction to the later one; the execution is serializable
    iff the union of these edges over all sites is acyclic. Because every
    subtransaction of a transaction carries the same gid, a cycle across
    sites — like the one in Example 1.1 of the paper — is detected even
    though each site's local schedule is serializable. A versioned log takes
    its edges from the versions instead: ww edges chain every install in
    (version, log position) order, so a version installed twice keeps both
    writers, and a reader of [v] follows the last installer of [v] and
    precedes the first installer of the next higher version. *)

type verdict =
  | Serializable
  | Not_serializable of int list
      (** A cycle of gids witnessing the violation, in order. *)

val check : History.t -> verdict

(** The serialization graph itself (vertices indexed by position in
    [History.committed_gids]), with the gid of each vertex — exposed for
    tests and the anomaly example. *)
val conflict_graph : History.t -> Repdb_graph.Digraph.t * int array

val pp_verdict : Format.formatter -> verdict -> unit
