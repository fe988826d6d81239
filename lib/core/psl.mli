(** Primary-site locking (PSL) — the baseline of Section 5.1.

    A lazy variant of the primary-copy locking approach: operations on items
    whose primary copy is local are handled locally; a read of a replica must
    obtain a shared lock {e at the item's primary site}, which ships the
    current value back with the lock grant. Updates touch only the local
    primary copy and are never pushed to replicas — a replica is refreshed
    implicitly because every read of it is served by the primary. All locks
    (local and remote) are released when the transaction commits, without
    waiting for any propagation.

    Distributed deadlocks are possible and are resolved by the lock-wait
    timeout at each site. *)

include Protocol.S
