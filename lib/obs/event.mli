(** Typed trace events.

    One constructor per observable state transition in the simulated system.
    Sites, items, transaction ids and lock-owner (attempt) ids are the plain
    integers the rest of the repository uses; message kinds are short strings
    chosen by each protocol so the tracer stays independent of every protocol
    message type. *)

type lock_mode = Shared | Exclusive

type kind =
  | Txn_begin of { gid : int; site : int }
      (** A primary transaction acquired its gid at its origin site. *)
  | Txn_commit of { gid : int; site : int }
  | Txn_abort of { gid : int; site : int; reason : string }
  | Lock_request of { site : int; owner : int; item : int; mode : lock_mode }
  | Lock_grant of { site : int; owner : int; item : int; mode : lock_mode }
  | Lock_wait of { site : int; owner : int; item : int; mode : lock_mode }
      (** The request blocked behind incompatible holders. *)
  | Lock_timeout of { site : int; owner : int; item : int }
  | Lock_deadlock of { site : int; owner : int; item : int }
      (** The waiter was chosen as a deadlock victim. *)
  | Lock_release of { site : int; owner : int }
      (** [release_all] for the owner (commit or abort). *)
  | Msg_send of { src : int; dst : int; kind : string; size : int }
  | Msg_recv of { src : int; dst : int; kind : string; size : int }
  | Msg_drop of { src : int; dst : int; kind : string; size : int }
      (** A transmission attempt was lost (drop window, or an endpoint down);
          the acked link retries it after the schedule's RTO. *)
  | Site_crash of { site : int }
      (** The site became unreachable and its volatile memory is lost. *)
  | Site_recover of { site : int; downtime : float }
      (** The site restarted: store rebuilt from the redo log after
          [downtime] ms down. *)
  | Secondary_recv of { gid : int; site : int }
      (** A propagated subtransaction was dequeued for processing. *)
  | Secondary_commit of { gid : int; site : int }
      (** A propagated subtransaction applied its writes at a replica. *)
  | Prop_apply of { gid : int; site : int; delay : float }
      (** Replica updated [delay] ms after the primary commit. *)
  | Epoch_advance of { site : int; epoch : int }
  | Dummy_emit of { src : int; dst : int }
      (** DAG(T) emitted a dummy subtransaction to push a child's clock. *)
  | Queue_depth of { site : int; queue : string; depth : int }
  | Backedge_stage of { gid : int; site : int }
      (** A backedge subtransaction staged its writes and holds its locks. *)
  | Backedge_decide of { gid : int; site : int; commit : bool }
      (** The origin's decision reached the participant. *)
  | Reconfig_begin of { epoch : int }
      (** The coordinator started draining epoch [epoch] for the next step. *)
  | Reconfig_switch of { epoch : int; duration : float }
      (** Routing switched to epoch [epoch] after [duration] ms of
          drain + state transfer. *)
  | Reconfig_done of { epoch : int; duration : float }
      (** Clients resumed under epoch [epoch]; the step took [duration] ms
          end to end. *)
  | State_transfer of { item : int; src : int; dst : int }
      (** A primary value was bulk-installed at a newly added replica. *)
  | Partition_begin of { groups : string }
      (** A network partition activated; [groups] in spec form
          (["0.1.2|3.4.5"]). Rides site 0's track like reconfig events. *)
  | Partition_heal of { groups : string }  (** The partition window closed. *)
  | Txn_deadline of { gid : int; site : int }
      (** A transaction's per-attempt deadline expired; it aborts with
          [Deadline_exceeded]. *)
  | Stale_read of { site : int; item : int; staleness : float }
      (** A PSL read was served from the local replica while the primary was
          unreachable; [staleness] is ms since the local copy was last
          written. *)
  | Span_phase of { gid : int; site : int; phase : string; t0 : float; dur : float }
      (** One lifecycle phase of a finished transaction attempt ([phase] in
          ["lock"], ["exec"], ["prop"], ["commit"]): it occupied [dur] ms
          starting at [t0]. Emitted at attempt completion by [Span]. *)
  | Suspect of { site : int; phi : float }
      (** The failure detector declared [site] suspect: a majority of its
          peers' φ values crossed the threshold ([phi] is the median). *)
  | Unsuspect of { site : int; downtime : float }
      (** Heartbeats resumed and [site] was cleared after [downtime] ms
          under suspicion. *)
  | Failover_begin of { site : int; epoch : int }
      (** The healer started draining epoch [epoch] to fail over the
          primaries held by suspected [site]. *)
  | Failover_done of { site : int; epoch : int; duration : float; promoted : int }
      (** Routing switched to epoch [epoch]; [promoted] items changed
          primary, after [duration] ms of weak drain + transfer. *)
  | Corrupt of { site : int; items : int }
      (** The injector silently scrambled [items] replica copies at [site]
          (bypassing the redo log — only anti-entropy can see it). *)
  | Repair_session of { primary : int; holder : int; mismatched : int }
      (** One anti-entropy digest exchange between [primary] and replica
          [holder] finished; [mismatched] items needed repair. *)
  | Repair_item of { item : int; src : int; dst : int }
      (** Anti-entropy shipped the primary copy of [item] from [src] and
          installed it at [dst] (redo-logged). *)
  | Rejoin of { site : int; repaired : int }
      (** A recovered (or demoted-then-cleared) site finished catch-up
          repair: [repaired] items were refreshed from their primaries. *)

type t = { time : float;  (** Simulated ms. *) kind : kind }

(** Short machine-readable label, e.g. ["lock_wait"]. *)
val label : kind -> string

(** The site whose track the event belongs to (the receiving site for
    messages and dummies). *)
val site : kind -> int

(** Event payload as label/value pairs (without the label or the site);
    numeric values are rendered unquoted by the exporters. *)
val args : kind -> (string * [ `Int of int | `Float of float | `String of string | `Bool of bool ]) list

val pp : Format.formatter -> t -> unit
