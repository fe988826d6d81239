(** Eager read-one/write-all replication — the classical approach the paper's
    introduction argues against.

    Every write updates all replicas inside the transaction: the origin
    acquires exclusive locks at each replica site as it executes, then runs a
    two-phase commit (prepare/ack, then decide) before releasing anything.
    Serializable by construction, but transaction size grows with the degree
    of replication, so deadlock probability and response time explode as
    sites are added — the [eager-scaling] experiment reproduces that claim.
    Not part of the paper's evaluation; included as an ablation baseline. *)

include Protocol.S
