(** The lazy-master protocol of Gray et al. 1996, as characterised in
    Section 1.2 of the paper: every read or write of an item requires a lock
    {e at the item's primary site}, and a transaction's write locks are held
    until its updates have been propagated to (and acknowledged by) every
    replica.

    Unlike PSL, replicas are physically refreshed, and a replica read is
    served locally once the primary grants the shared lock — safe precisely
    because writers do not release until all replicas are up to date. Unlike
    the DAG/BackEdge protocols this is {e not} lazy in the paper's sense: the
    transaction still holds its locks during propagation, so lock hold times
    (and deadlock exposure) grow with the degree of replication. Included as
    the second baseline the paper positions itself against. *)

include Protocol.S
