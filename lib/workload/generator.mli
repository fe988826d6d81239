(** Transaction generation (Section 5.2 of the paper).

    Each transaction is a sequence of [ops_per_txn] operations. With
    probability [read_txn_prob] the transaction is read-only; otherwise each
    operation is a read with probability [read_op_prob]. Reads pick uniformly
    among the items placed at the originating site; writes pick uniformly
    among the items whose primary copy is there (the system model only allows
    updating local primaries). *)

type t

(** [create rng params placement] precomputes per-site item pools. No draw
    is taken from [rng]: transactions draw from the stream given to
    {!gen_with}. *)
val create : Repdb_sim.Rng.t -> Params.t -> Placement.t -> t

(** [refresh t placement] rebuilds the per-site pools against a reconfigured
    placement. Pool contents change but no RNG draw is consumed, so the
    transaction stream stays aligned across protocols; called by the
    reconfiguration coordinator while clients are stalled at the epoch
    barrier. *)
val refresh : t -> Placement.t -> unit

(** [gen_with t rng ~site] draws the next transaction originating at [site]
    from the stream [rng], so each client thread can own an independent,
    protocol-independent sequence (the driver uses this to present identical
    workloads to every protocol). If the site has no items to read the
    transaction is empty; write ops fall back to reads when the site has no
    local primaries. *)
val gen_with : t -> Repdb_sim.Rng.t -> site:int -> Repdb_txn.Txn.spec

(** Item pools, exposed for tests: [readable t site] are items placed at the
    site; [writable t site] the local primaries. *)
val readable : t -> int -> int array

val writable : t -> int -> int array
