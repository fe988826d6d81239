(** Self-healing executor: heartbeat-driven φ-accrual failure detection,
    automatic primary failover through the epoch machinery, and Merkle-style
    anti-entropy repair.

    Scheduled by the driver when [--heal] is on. All activity rides a
    dedicated control-plane network (same latency model and fault injector as
    the data nets, but outside the data-plane message/outstanding accounting)
    and is driven entirely by simulated time, so healing runs stay
    deterministic and byte-identical across repeats and [-j].

    Protocol requirements: failover reuses the online-reconfiguration hook,
    so the protocol must provide {!Protocol.S.reconfigure}; healing a
    blocking protocol (PSL's synchronous remote reads) additionally needs
    [--txn-deadline] so the weak drain is bounded. *)

type t

(** End-of-run healing totals, embedded in {!Driver.report}. *)
type summary = {
  suspicions : int;
  false_suspicions : int;
      (** Suspected while actually up — partitions or scheduling jitter; a
          false failover costs availability (one epoch switch), never
          consistency. *)
  failovers : int;  (** Epoch switches executed by the healer. *)
  promoted_items : int;
  rejoins : int;
  repair_sessions : int;
  repaired_items : int;  (** Values installed by [Repair] messages. *)
  incidents_open : int;  (** Sites still suspected when the run ended. *)
  mttr_mean : float;  (** ms from suspicion until rejoin repair shipped. *)
  mttr_max : float;
  failover_mean : float;  (** ms per failover: weak drain + switch. *)
  stale_drops : int;  (** Old-epoch messages dropped by the relaxed fence. *)
  corruption_events : int;
  corrupt_items : int;
}

(** [schedule c epoch] — create the control-plane net, the per-pair
    detector matrix and the [detector.*]/[repair.*]/[heal.*] counters,
    install the timeline φ probe, and spawn the heartbeat, suspicion-poll
    and anti-entropy fibers. Failovers run through [epoch]'s
    {!Epoch.switch} with a weak drain. *)
val schedule : Cluster.t -> Epoch.t -> t

(** [final_sweep t ~at] spawns a full repair sweep over every (primary,
    holder) pair, starting at [at] — the post-quiescence convergence
    backstop. Drop and delay windows are checked only when a message is
    sent, so [at] must lie past every fault window for the sweep to be
    unconditional. The caller must run the simulator afterwards to drain
    it. *)
val final_sweep : t -> at:float -> unit

val summary : t -> summary
val pp_summary : Format.formatter -> summary -> unit
