(** The epoch coordinator: every change of placement mid-run goes through here.

    The paper's protocols assume a static copy graph. [repdb] stays faithful
    to that by switching placements only on a drained cluster, so each epoch
    runs the unchanged protocol on its own copy graph. Two callers ask for
    switches: the operator's reconfiguration plan ([params.reconfig], run by
    {!schedule}) and the healer's failover ({!Heal_exec}). Both go through
    {!switch}, which runs these seven steps:

    + {b acquire} the switch: wait while another switch is in progress, then
      mark the cluster switching, which stalls every client at {!barrier}
      before its next attempt;
    + {b drain}, strong or weak (see {!type-drain});
    + compute the {b next placement} with the caller's function, which may
      decline (then steps 4–6 are skipped);
    + {b state-transfer} current primary values to every copy the next
      placement adds, over a typed network whose deliveries are counted
      outstanding (crashed destinations receive theirs after restart via
      the acked links);
    + {b drain a second time}, only if anything was shipped, so the last
      install has landed;
    + {b switch} atomically: install the placement, run the protocol's
      [reconfigure] hook, refresh the workload generator's pools and bump
      the epoch — nothing blocks in between, so no process observes a
      half-switched cluster;
    + {b release} the switch and broadcast [resume].

    Everything runs inside the simulation, so repeats are byte-identical.
    Callers keep their own trace events and counters: the operator plan
    emits [Reconfig_begin] / [State_transfer]* / [Reconfig_switch] /
    [Reconfig_done] and fills the [reconfig.switch] and [reconfig.stall]
    histograms; the healer emits [Failover_*]. The state lives in
    {!type-Cluster.epoch}, which only this module reads or writes. *)

module Placement = Repdb_workload.Placement

(** How empty the cluster must be before a switch.

    - [Strong]: no transaction attempt executing and nothing outstanding, so
      the old epoch is fully applied. Operator reconfiguration uses it.
    - [Weak]: as [Strong], except that messages parked behind an outage (a
      down endpoint or an active partition between the pair) are ignored;
      waiting for them would stall the switch for the downtime a failover is
      meant to mask. Polled with a settle delay, since parked counts change
      without broadcasts. Such messages surface under a later epoch and are
      dropped by {!stale}. *)
type drain = Strong | Weak

(** A coordinator bound to one cluster, protocol hook and generator. *)
type t

(** [schedule c ~reconfigure ~gen] — the cluster's coordinator.
    [reconfigure] is the protocol's rebuild hook, closed over its state;
    [gen] is refreshed at every switch. With a non-empty [params.reconfig]
    it also builds the state-transfer network, spawns the per-site transfer
    servers and a process that runs each plan step at its trigger time. The
    driver calls this before starting clients. *)
val schedule :
  Cluster.t -> reconfigure:(unit -> unit) -> gen:Repdb_workload.Generator.t -> t

(** [switch t drain ?admit next] runs the seven steps above. [admit] runs
    once the switch is held, before the drain; when it returns [false] the
    switch is released at once and [switch] returns [false]. Otherwise
    [next] receives the current placement and returns the next one, or
    [None] to release without switching; [switch] then returns [true]. *)
val switch :
  t -> drain -> ?admit:(unit -> bool) -> (Placement.t -> Placement.t option) -> bool

(** {1 Read side} *)

(** The current configuration epoch, 0 at the start; propagation messages
    carry the epoch they were routed under. *)
val current : Cluster.t -> int

(** Is a switch in progress? *)
val switching : Cluster.t -> bool

(** Can the placement change mid-run — an operator plan is scheduled or the
    healer may fail over ([params.heal])? Protocols use this to provision
    appliers for sites that could gain a tree parent at a later epoch. *)
val planned : Cluster.t -> bool

(** Stall while a switch is in progress; no-op otherwise. The stall is
    charged to [site] in [reconfig.stall] and the stall total. Clients call
    this before generating each transaction and before each attempt. *)
val barrier : Cluster.t -> site:int -> unit

(** [stale c ~site ~epoch] — true iff [epoch] predates {!current}: the
    message was parked behind an outage when a weak-drain failover moved
    routing on, and the receiving protocol must drop it (anti-entropy
    repairs the gap). Counted per site in ["heal.stale_drop"].
    @raise Failure when healing is off (the strong drain makes a stale
    epoch a protocol bug there). *)
val stale : Cluster.t -> site:int -> epoch:int -> bool

(** [(reconfigs, state_transfers, stall_ms)]: operator plan steps executed,
    values shipped to new copies, and total client stall at {!barrier}. *)
val totals : Cluster.t -> int * int * float
