(** Replica-convergence check.

    After a run has quiesced, every secondary copy of every item must hold
    exactly the value of its primary copy — same last writer, same version.
    Protocols that never push physical updates (PSL) are exempt; their
    replicas are virtual. *)

type divergence = {
  item : int;
  site : int;  (** The replica site that disagrees. *)
  primary_value : Repdb_store.Value.t;
  replica_value : Repdb_store.Value.t;
}

(** All divergent copies; empty means converged. *)
val check : Cluster.t -> divergence list
