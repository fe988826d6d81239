(** Epoch-based optimistic concurrency control (Mao et al. style).

    Transactions execute optimistically against their local site — reads
    capture the observed item version, writes are buffered — and block at
    the epoch boundary: every [Params.occ_epoch_ms] each site flushes its
    buffered transactions as {e one batch} to the validator (site 0), which
    performs backward read-set validation against the versions certified
    since (accept iff every read is still latest) in arrival order. Winners'
    writes are applied at the origin primary by its server and propagated
    lazily to replicas; losers abort with
    {!Repdb_txn.Txn.Validation_failed}.

    The epoch batch amortizes the per-transaction certification round trip
    that makes [central] a bottleneck, at the cost of commit latency (half
    an epoch on average) — and of validation aborts where contention is
    high, since the read set ages for up to a whole epoch before it is
    checked.

    [create] refuses [params.heal] ([Invalid_argument]): a repair can reach
    a replica before an in-flight versioned update, whose install then finds
    the copy past its version. *)

include Protocol.S
