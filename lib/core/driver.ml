module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Lock_mgr = Repdb_lock.Lock_mgr
module Params = Repdb_workload.Params
module Generator = Repdb_workload.Generator
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn
module Serializability = Repdb_txn.Serializability

module Stats = Repdb_obs.Stats
module Trace = Repdb_obs.Trace
module Timeline = Repdb_obs.Timeline

type report = {
  protocol : string;
  params : Params.t;
  summary : Metrics.summary;
  serializability : Serializability.verdict option;
  divergent : Convergence.divergence list option;
  copy_graph_edges : int;
  n_backedges : int;
  n_replicas : int;
  lock_stats : Lock_mgr.stats;
  sim_events : int;
  sim_time : float;
  trace : Trace.t;
  site_stats : Stats.t;
  crashes : int;
  msg_drops : int;
  partitions : int;
  reconfigs : int;
  state_transfers : int;
  reconfig_stall : float;
  retries_exhausted : int;
  heal : Heal_exec.summary option;
  timeline : Timeline.t option;
}

(* One transaction's attempts, from the first to its commit or its last
   retry. [n_failed] counts its failed attempts; each retry gets a fresh
   deadline (the deadline is per attempt, not per transaction). A top-level
   recursion, so a transaction allocates no closure and no ref. *)
let rec attempt (c : Cluster.t) submit gen rng retry_rng ~site ~start spec spec_epoch n_failed =
  Epoch.barrier c ~site;
  (* A retry that crossed an epoch switch redraws its transaction: the old
     spec may read replicas the new placement dropped from this site, whose
     local copies no longer receive updates. *)
  let epoch = Epoch.current c in
  let spec = if epoch <> spec_epoch then Generator.gen_with gen rng ~site else spec in
  Cluster.txn_started c;
  let outcome = submit spec in
  Cluster.txn_finished c;
  Metrics.outcome c.metrics ~site ~response:(Sim.now c.sim -. start) outcome;
  match (outcome, c.params.retry) with
  | Txn.Aborted _, Params.Backoff { base; multiplier; cap; max_retries }
    when n_failed < max_retries ->
      let backoff = Float.min cap (base *. (multiplier ** float_of_int n_failed)) in
      (* Jitter in [0.5, 1.0), drawn from the dedicated per-client stream so
         retries never perturb the workload draws. *)
      let think = backoff *. (0.5 +. (0.5 *. Rng.float retry_rng)) in
      Sim.delay think;
      Metrics.think c.metrics ~site think;
      attempt c submit gen rng retry_rng ~site ~start spec epoch (n_failed + 1)
  | Txn.Aborted _, Params.Backoff _ -> Cluster.exhaust_retries c
  | _ -> ()

let client (c : Cluster.t) submit gen rng retry_rng ~site =
  for _ = 1 to c.params.txns_per_thread do
    (* A crashed site accepts no new transactions; its clients pause until
       the restart broadcast. *)
    Fault_exec.await_site_up c site;
    (* An in-progress epoch switch stalls the client here (the mid-run
       throughput dip the reconfig experiment measures). *)
    Epoch.barrier c ~site;
    let spec = Generator.gen_with gen rng ~site in
    let spec_epoch = Epoch.current c in
    attempt c submit gen rng retry_rng ~site ~start:(Sim.now c.sim) spec spec_epoch 0
  done;
  Metrics.client_done c.metrics ~time:(Sim.now c.sim);
  Cluster.client_finished c

let run_on (c : Cluster.t) (module P : Protocol.S) =
  let p = c.params in
  (* Refuse unsupported combinations up front, before any simulation runs. *)
  let reconfig_hook : P.t -> unit =
    if not (Epoch.planned c) then fun _ -> ()
    else
      match P.reconfigure with
      | Some f -> f
      | None ->
          invalid_arg
            (Printf.sprintf "Driver: protocol %s does not support %s" P.name
               (if p.heal then "healing (failover needs the reconfigure hook)"
                else "online reconfiguration"))
  in
  let proto = P.create c in
  let gen = Generator.create c.rng p c.placement in
  for site = 0 to p.n_sites - 1 do
    for thread = 0 to p.threads_per_site - 1 do
      Cluster.client_started c;
      let rng = Rng.create ((p.seed * 1_000_003) + (site * 131) + thread) in
      (* Separate stream for backoff jitter: enabling retries must not shift
         the workload stream, and vice versa. *)
      let retry_rng = Rng.create ((p.seed * 48271) + (site * 131) + thread) in
      Sim.spawn c.sim (fun () ->
          client c (P.submit proto) gen rng retry_rng ~site)
    done
  done;
  Fault_exec.schedule c;
  let epoch = Epoch.schedule c ~reconfigure:(fun () -> reconfig_hook proto) ~gen in
  let healer = if p.heal then Some (Heal_exec.schedule c epoch) else None in
  (* The timeline ticker: samples every [timeline_every] ms of simulated
     time and stops rescheduling once the run is quiescent, so it never
     keeps the drain phase alive. *)
  let timeline = Metrics.timeline c.metrics in
  (match timeline with
  | None -> ()
  | Some tl ->
      Timeline.set_meta tl [ ("protocol", P.name); ("seed", string_of_int p.seed) ];
      let every = Timeline.interval tl in
      let rec tick at =
        Sim.at c.sim at (fun () ->
            Metrics.sample c.metrics ~active:(Cluster.active_txns c) ~inflight:(Cluster.in_flight c)
              ~locks:c.locks;
            if not (Cluster.stopped c) then tick (at +. every))
      in
      tick 0.0);
  Sim.spawn c.sim (fun () -> Cluster.await_quiescence c);
  (* Each of a site's transactions gets 2 s plus a round trip per operation
     (PSL's remote reads, eager's write-all), so the budget scales with the
     latency; propagation draining after the last commit gets a hop through
     every site on top of the fixed 120 s. *)
  let txns_per_site = float_of_int (p.threads_per_site * p.txns_per_thread) in
  let per_txn = 2_000.0 +. (2.0 *. p.latency *. float_of_int p.ops_per_txn) in
  let horizon =
    120_000.0
    +. (per_txn *. txns_per_site)
    +. (p.latency *. float_of_int p.n_sites)
    +. Repdb_fault.Fault.last_event p.faults
    +. Repdb_reconfig.Reconfig.last_event p.reconfig
  in
  Sim.run_until c.sim horizon;
  if not (Cluster.quiescent c) then
    failwith
      (Printf.sprintf "%s failed to quiesce within %.0f ms of simulated time (%s)" P.name horizon
         (Cluster.busy c));
  (* Drain any leftover timer wake-ups past the stop flag. *)
  Sim.run c.sim;
  (* With healing on, one last full anti-entropy sweep after quiescence: the
     backstop that makes convergence unconditional even when the relaxed
     stale-epoch fence dropped propagation mid-failover. It starts no earlier
     than the horizon, which lies past every fault window: the heap may have
     drained long before, while a drop or delay window is still open. *)
  (match healer with
  | None -> ()
  | Some h ->
      Heal_exec.final_sweep h ~at:(Float.max (Sim.now c.sim) horizon);
      Sim.run c.sim);
  let heal_summary = Option.map Heal_exec.summary healer in
  let summary = Metrics.summary c.metrics in
  (* Fold the end-of-run breakdown into the timeline metadata so `repdb
     report` can render it from the CSV alone. *)
  (match timeline with
  | None -> ()
  | Some tl ->
      let aborts =
        List.map
          (fun (r, n) -> ("aborts." ^ Txn.string_of_abort r, string_of_int n))
          summary.Metrics.aborts_by_reason
      in
      let heal_meta =
        match heal_summary with
        | None -> []
        | Some (h : Heal_exec.summary) ->
            [
              ("detector.suspicions", string_of_int h.suspicions);
              ("detector.false", string_of_int h.false_suspicions);
              ("heal.failovers", string_of_int h.failovers);
              ("heal.promoted", string_of_int h.promoted_items);
              ("heal.rejoins", string_of_int h.rejoins);
              ("heal.mttr_mean_ms", Printf.sprintf "%.3f" h.mttr_mean);
              ("heal.mttr_max_ms", Printf.sprintf "%.3f" h.mttr_max);
              ("repair.sessions", string_of_int h.repair_sessions);
              ("repair.items", string_of_int h.repaired_items);
              ("heal.stale_drops", string_of_int h.stale_drops);
              ("corrupt.events", string_of_int h.corruption_events);
              ("corrupt.items", string_of_int h.corrupt_items);
            ]
      in
      Timeline.set_meta tl (Timeline.meta tl @ aborts @ heal_meta));
  let reconfigs, state_transfers, reconfig_stall = Epoch.totals c in
  let stats = Metrics.stats c.metrics in
  let total = Stats.total stats in
  {
    protocol = P.name;
    params = p;
    summary;
    serializability =
      (if Repdb_txn.History.enabled c.history then Some (Serializability.check c.history) else None);
    divergent = (if P.updates_replicas then Some (Convergence.check c) else None);
    copy_graph_edges = Repdb_graph.Digraph.n_edges (Placement.copy_graph c.placement);
    n_backedges = List.length (Placement.backedges c.placement);
    n_replicas = Placement.n_replicas c.placement;
    lock_stats =
      {
        acquires = total "lock.acq";
        waits = total "lock.wait";
        timeouts = total "lock.tmo";
        deadlock_aborts = total "lock.ddl";
      };
    sim_events = Sim.events_executed c.sim;
    sim_time = Cluster.stopped_at c;
    trace = Metrics.trace c.metrics;
    site_stats = stats;
    crashes = Fault_exec.crashes c;
    msg_drops = total "msg.drop";
    partitions = Fault_exec.partitions c;
    reconfigs;
    state_transfers;
    reconfig_stall;
    retries_exhausted = Cluster.retries_exhausted c;
    heal = heal_summary;
    timeline;
  }

let run ?placement ?trace params protocol =
  let c =
    match placement with
    | Some pl -> Cluster.create_with ?trace params pl
    | None -> Cluster.create ?trace params
  in
  run_on c protocol

let pp_report ppf r =
  Fmt.pf ppf "@[<v>[%s] %a@ %a@ %a@ copy-graph edges=%d backedges=%d replicas=%d@ locks: %d acquires, %d waits, %d timeouts, %d deadlock aborts@ %a%a%a%a%a%a@]"
    r.protocol Params.pp r.params Metrics.pp_summary r.summary Metrics.pp_per_site r.summary
    r.copy_graph_edges r.n_backedges
    r.n_replicas r.lock_stats.acquires r.lock_stats.waits r.lock_stats.timeouts
    r.lock_stats.deadlock_aborts
    (fun ppf n -> if n > 0 then Fmt.pf ppf "retries exhausted: %d@ " n)
    r.retries_exhausted
    (fun ppf r ->
      if not (Repdb_fault.Fault.is_empty r.params.faults) then
        Fmt.pf ppf "faults: %d crashes survived, %d dropped transmissions, %d partitions@ "
          r.crashes r.msg_drops r.partitions)
    r
    (fun ppf r ->
      if not (Repdb_reconfig.Reconfig.is_empty r.params.reconfig) then
        Fmt.pf ppf "reconfig: %d epoch switches, %d state transfers, %.1f ms client stall@ "
          r.reconfigs r.state_transfers r.reconfig_stall)
    r
    (fun ppf r ->
      match r.heal with
      | None -> ()
      | Some h -> Fmt.pf ppf "%a@ " Heal_exec.pp_summary h)
    r
    (Fmt.option (fun ppf v -> Fmt.pf ppf "serializability: %a@ " Serializability.pp_verdict v))
    r.serializability
    (Fmt.option (fun ppf d ->
         Fmt.pf ppf "convergence: %s"
           (if d = [] then "ok" else Printf.sprintf "%d divergent copies" (List.length d))))
    r.divergent

let pp_site_stats ppf r = Stats.pp_table ppf r.site_stats
