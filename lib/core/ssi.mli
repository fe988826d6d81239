(** Serializable snapshot isolation over lazy replication.

    Transactions read a consistent snapshot as of their begin timestamp from
    the local multi-version chains ({!Repdb_store.Mvstore}), falling back to
    any available copy site when the local chain cannot serve the version
    (available-copies reads). At commit every transaction certifies at
    site 0, whose {!Repdb_occ.Conflict_tracker} enforces snapshot validity,
    first-committer-wins on overlapping write sets
    ({!Repdb_txn.Txn.First_committer_lost}) and the rw-antidependency
    dangerous-structure rule ({!Repdb_txn.Txn.Dangerous_structure}): a
    transaction whose commit would complete an in-edge/out-edge pivot
    aborts, so no snapshot-isolation write-skew cycle ever commits.

    Certified writes are applied at the origin primary in certification
    order and propagated lazily to replicas together with their commit
    timestamp, which extends each replica's version chain — later snapshot
    reads are served with no locks and no round trip.

    [create] refuses [params.heal] ([Invalid_argument]): a repair can reach
    a replica before an in-flight versioned update, whose install then finds
    the copy past its version. *)

include Protocol.S
