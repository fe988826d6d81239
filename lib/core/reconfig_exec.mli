(** Epoch-based reconfiguration coordinator.

    Executes the cluster's reconfiguration plan ([params.reconfig]) live, one
    step at a time. At each step's trigger time the coordinator:

    + marks the cluster [reconfiguring], which stalls every client at
      {!Cluster.reconfig_barrier} before its next transaction;
    + waits for the cluster to drain — no transaction attempt executing,
      no propagation outstanding — so the old epoch is fully applied;
    + computes the new placement with {!Placement.apply_step} and
      bulk-transfers current primary values to newly added replicas over a
      typed state-transfer network (counted outstanding, so a second drain
      wait covers the last install; crashed destinations receive theirs
      after restart via the acked links);
    + switches epochs atomically with {!Cluster.switch_epoch} (the same
      switch a healer failover makes): swap the placement, run the
      protocol's [reconfigure] hook, refresh the generator's item pools and
      bump [config_epoch];
    + clears the flag and broadcasts [resume].

    Everything runs inside the simulation, so repeats are byte-identical;
    the sequence is traced as [Reconfig_begin] / [State_transfer]* /
    [Reconfig_switch] / [Reconfig_done] and the switch latency and client
    stall times land in the cluster's reconfig histograms. *)

(** [schedule c ~reconfigure ~gen] spawns the per-site state-transfer
    servers and the coordinator process; no-op when the plan is empty.
    [reconfigure] is the protocol's rebuild hook, closed over its state; the
    driver calls this before starting clients (like
    {!Cluster.schedule_faults}). *)
val schedule :
  Cluster.t -> reconfigure:(unit -> unit) -> gen:Repdb_workload.Generator.t -> unit
