(** Common interface implemented by every update-propagation protocol. *)

module type S = sig
  type t

  (** Short name used in reports and experiments ("dag-wt", "psl", ...). *)
  val name : string

  (** Protocols that never push physical updates to replicas (PSL) opt out of
      the replica-convergence check. *)
  val updates_replicas : bool

  (** [create cluster] wires the protocol's background processes (appliers,
      epoch/dummy timers, message handlers) into the cluster's simulation.
      Must be called before {!Cluster.t.sim} runs. *)
  val create : Cluster.t -> t

  (** [submit t spec] executes one attempt of a transaction from within a
      simulated client process, blocking until it commits or aborts. The
      access history is recorded internally; commit/abort metrics are the
      driver's responsibility (it knows about retries and response times). *)
  val submit : t -> Repdb_txn.Txn.spec -> Repdb_txn.Txn.outcome

  (** Called by the reconfiguration coordinator at each epoch switch, after
      the cluster has drained and [Cluster.t.placement] has been swapped:
      rebuild whatever the protocol derived from the old placement (tree,
      routing maps, backedge sets). [None] marks the protocol as not
      supporting online reconfiguration (DAG(T): its per-copy-graph-parent
      queues and timestamp ranks are tied to one topology for the lifetime of
      the run); the driver refuses to run such a protocol under a non-empty
      plan. Protocols that read the placement afresh on every access (PSL,
      lazy-master, central, eager, naive) use [Some ignore]. *)
  val reconfigure : (t -> unit) option
end

type t = (module S)

(** The protocol's {!S.name}; {!Registry} lists every registered one. *)
val name : t -> string

(** [variant ~name ~create (module P)] — [P] under another name, built by
    another constructor (a different tree, site order or applier); [submit],
    [updates_replicas] and [reconfigure] are [P]'s. *)
val variant : name:string -> create:(Cluster.t -> 'a) -> (module S with type t = 'a) -> t
