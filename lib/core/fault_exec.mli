(** Fault executor: runs the crash, corruption and partition schedule of
    [params.faults] and owns {!Cluster.t.faults}, the state it leaves
    behind. The counterpart of {!Heal_exec}, which repairs what this
    module breaks.

    Crashes are modelled at the storage and transport boundaries: while a
    site is down it is unreachable in both directions (the networks' acked
    links retry around the downtime) and its clients pause before starting
    new transactions; at restart the volatile store is discarded and rebuilt
    from the site's redo log. Work the site had already accepted completes —
    the paper's durability story (DataBlitz redo recovery) covers committed
    state, not scheduler state.

    Every function is a no-op (or reports "up", or 0) on a cluster built
    without faults, whose [faults] is [None]. *)

(** Is the site up? Always [true] without faults. *)
val site_up : Cluster.t -> int -> bool

(** Block until the site is up; returns immediately if it already is.
    Clients call this before starting each transaction. *)
val await_site_up : Cluster.t -> int -> unit

(** Schedule every crash/restart and corruption in the fault schedule as
    simulation events, plus counting/trace marks for each partition begin
    and heal. The driver calls this before starting clients. *)
val schedule : Cluster.t -> unit

(** Clear a corruption mark ({!Heal_exec} repaired or re-verified the
    copy). *)
val clear_corrupt : Cluster.t -> site:int -> item:int -> unit

(** Crash events executed so far. *)
val crashes : Cluster.t -> int

(** Partition windows activated so far. *)
val partitions : Cluster.t -> int

(** [(events, items)]: corruption clauses executed and copies they scrambled
    (the latter counted by ["corrupt.items"], registered only under
    [params.heal]; 0 otherwise). *)
val corruption : Cluster.t -> int * int
