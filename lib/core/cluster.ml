module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Condvar = Repdb_sim.Condvar
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Wal = Repdb_store.Wal
module Lock_mgr = Repdb_lock.Lock_mgr
module Fault = Repdb_fault.Fault
module Reconfig = Repdb_reconfig.Reconfig
module History = Repdb_txn.History
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Timeline = Repdb_obs.Timeline
module Profile = Repdb_obs.Profile

type epoch = {
  mutable config_epoch : int;
  mutable reconfiguring : bool;
  drained : Condvar.t; (* broadcast when active_txns = outstanding = 0 *)
  resume : Condvar.t; (* broadcast when the epoch switch completes *)
  mutable reconfigs : int;
  mutable state_transfers : int;
  mutable stall_total : float;
  switch_hist : Stats.histogram option;
  stall_hist : Stats.histogram option;
  stale_drop_ctr : Stats.counter option; (* "heal.stale_drop", heal only *)
}

type t = {
  sim : Sim.t;
  params : Params.t;
  mutable placement : Placement.t;
  lat_fn : int -> int -> float;
  stores : Store.t array;
  locks : Lock_mgr.t array;
  cpus : Resource.t array;
  history : History.t;
  metrics : Metrics.t;
  rng : Rng.t;
  mutable next_gid : int;
  mutable next_attempt : int;
  mutable outstanding : int;
  mutable clients_running : int;
  mutable stopped : bool;
  quiesced : Condvar.t;
  injector : Fault.injector option;
  wals : Wal.t array; (* one per site when faults are on; [||] otherwise *)
  site_up : bool array;
  up_cv : Condvar.t array; (* broadcast when the site restarts *)
  mutable crashes : int;
  mutable partitions : int; (* partition windows that have activated *)
  (* Per-transaction deadline handoff: the client arms it immediately before
     [submit] and the protocol reads it at entry — no blocking point in
     between, so the field never mixes transactions. Infinity = no deadline. *)
  mutable deadline_at : float;
  (* [site][item] -> simulated time of the last locally applied write; feeds
     the staleness of partition-time local reads. *)
  apply_mtime : float array array;
  mutable active_txns : int;
  mutable inflight_fns : ((src:int -> dst:int -> bool) -> int) list;
      (* Per network/batcher: in-flight units on pairs selected by the
         predicate — all pairs for the timeline; the weak failover drain
         sums the pairs parked behind a down or partitioned endpoint. *)
  (* Self-healing (all idle unless [params.heal]) *)
  corrupted : (int * int, unit) Hashtbl.t;
      (* (site, item) replica copies silently scrambled by a corrupt@ fault
         clause and not yet repaired; recovery and anti-entropy clear marks. *)
  mutable corruption_events : int;
  epoch : epoch; (* owned by [Epoch] *)
  corrupt_ctr : Stats.counter option; (* "corrupt.items", heal only *)
}

let create_with ?latency ?(trace = false) ?trace_capacity (params : Params.t) placement =
  Params.validate params;
  let lat_fn = match latency with Some f -> f | None -> fun _ _ -> params.latency in
  let profile = if params.profile then Profile.create () else Profile.disabled in
  let sim = Sim.create ~profile () in
  let m = params.n_sites in
  let tr =
    if trace then Trace.create ?capacity:trace_capacity ~clock:(Sim.clock sim) ()
    else Trace.disabled
  in
  let stats = Stats.create ~n_sites:m () in
  let spans = Span.create ~stats ~trace:tr () in
  let stores =
    Array.init m (fun site ->
        Store.create ~site (Array.to_list (Placement.placed_at placement site)))
  in
  let policy : Lock_mgr.policy =
    match params.deadlock_policy with
    | `Timeout -> `Timeout params.lock_timeout
    | `Detect -> `Detect (Some params.lock_timeout)
  in
  (* Static topologies remap lock-table slots to the site's dense placed-item
     ranks: every lock a protocol takes at a site is for an item placed there,
     so the table holds |placed| entries instead of max-item-id — the
     difference between megabytes and gigabytes at 200 sites x 100k items.
     Under a reconfiguration plan new items can appear at a site mid-run, so
     the identity map (grow-on-demand) is kept. *)
  let locks =
    (* Healing can promote primaries (and so move items' lock sites) at a
       failover epoch switch, so it needs the grow-on-demand identity map
       just like an operator reconfiguration plan. *)
    let static = Reconfig.is_empty params.reconfig && not params.heal in
    Array.init m (fun site ->
        let remap =
          if static then
            Some
              (fun item ->
                let slot = Placement.placed_index placement ~site item in
                if slot < 0 then
                  invalid_arg
                    (Printf.sprintf "Cluster: lock on item %d not placed at site %d" item site)
                else slot)
          else None
        in
        Lock_mgr.create ~sim ~policy ~site ~trace:tr ~stats ?remap
          ~on_wait:(fun ~owner ~dur -> Span.add spans ~owner Span.Lock_wait dur)
          ())
  in
  let n_machines = min params.n_machines m in
  let cpus = Array.init n_machines (fun _ -> Resource.create ~capacity:1 ()) in
  let faulty = not (Fault.is_empty params.faults) in
  let injector =
    if faulty then Some (Fault.injector ~n_sites:m ~seed:((params.seed * 69069) + 13) params.faults)
    else None
  in
  (* Redo logs are only attached under fault injection: they hook every
     committed write, and fault-free runs never crash. *)
  let wals =
    if faulty then
      Array.mapi
        (fun _ store ->
          let wal = Wal.create () in
          Wal.attach wal store;
          wal)
        stores
    else [||]
  in
  (* [Stats.pp_table] prints every registered counter and histogram in
     registration order: after the lock counters come these, registered
     only under a plan (histograms) or under healing (counters) so static,
     heal-off tables are unchanged, and then Metrics' own. *)
  let corrupt_ctr = if params.heal then Some (Stats.counter stats "corrupt.items") else None in
  let stale_drop_ctr = if params.heal then Some (Stats.counter stats "heal.stale_drop") else None in
  let planned = not (Reconfig.is_empty params.reconfig) in
  let stall_hist = if planned then Some (Stats.histogram stats "reconfig.stall") else None in
  let switch_hist = if planned then Some (Stats.histogram stats "reconfig.switch") else None in
  let timeline =
    if params.timeline_every > 0.0 then
      Some (Timeline.create ~n_sites:m ~interval:params.timeline_every ~phi:params.heal ())
    else None
  in
  let metrics =
    Metrics.create ~sim ~trace:tr ~spans ?timeline ~stale_reads:(params.stale_reads > 0.0) stats
  in
  {
    sim;
    params;
    placement;
    lat_fn;
    stores;
    locks;
    cpus;
    history = History.create ~enabled:params.record_history ~n_sites:m ();
    metrics;
    rng = Rng.create (params.seed * 31 + 7);
    next_gid = 0;
    next_attempt = 0;
    outstanding = 0;
    clients_running = 0;
    stopped = false;
    quiesced = Condvar.create ();
    injector;
    wals;
    site_up = Array.make m true;
    up_cv = Array.init m (fun _ -> Condvar.create ());
    crashes = 0;
    partitions = 0;
    deadline_at = infinity;
    (* Only materialized when bounded-staleness reads can consult it: m * n
       floats is 160 MB at 200 sites x 100k items. *)
    apply_mtime =
      (if params.stale_reads > 0.0 then Array.init m (fun _ -> Array.make params.n_items 0.0)
       else [||]);
    active_txns = 0;
    inflight_fns = [];
    corrupted = Hashtbl.create 16;
    corruption_events = 0;
    epoch =
      {
        config_epoch = 0;
        reconfiguring = false;
        drained = Condvar.create ();
        resume = Condvar.create ();
        reconfigs = 0;
        state_transfers = 0;
        stall_total = 0.0;
        switch_hist;
        stall_hist;
        stale_drop_ctr;
      };
    corrupt_ctr;
  }

let create ?trace ?trace_capacity (params : Params.t) =
  let placement_rng = Rng.create params.seed in
  create_with ?trace ?trace_capacity params (Placement.generate placement_rng params)

let fresh_gid t =
  t.next_gid <- t.next_gid + 1;
  t.next_gid

let fresh_attempt t =
  t.next_attempt <- t.next_attempt + 1;
  t.next_attempt

let use_cpu t site d =
  if d > 0.0 then begin
    let machine = site mod Array.length t.cpus in
    let d =
      if machine = t.params.straggler_machine then d *. t.params.straggler_factor else d
    in
    Resource.use t.cpus.(machine) d
  end

let latency_fn t src dst = t.lat_fn src dst

(* Every network and batcher registers its in-flight count on the pairs a
   predicate selects: the timeline samples all pairs, the weak drain the
   parked ones. *)
let net_with ?arity ?describe t =
  let net =
    Repdb_net.Network.create ~sim:t.sim ~n_sites:t.params.n_sites ~latency:(latency_fn t) ?arity
      ~trace:(Metrics.trace t.metrics) ?describe ~stats:(Metrics.stats t.metrics)
      ?injector:t.injector ()
  in
  t.inflight_fns <- (fun f -> Repdb_net.Network.in_flight_matching net ~f) :: t.inflight_fns;
  net

let make_net ?describe t = net_with ?describe t

(* A net whose messages are per-pair coalesced update runs. Counters and
   traces account logical updates (a singleton batch describes exactly like
   the bare message did pre-batching, so batch_size=1 traces are unchanged);
   the [inflight] sample also counts updates still parked in the batcher. *)
let make_batch_net ?describe_one t =
  let describe =
    Option.map
      (fun d -> function
        | [ m ] -> d m
        | ms ->
            let kind = match ms with m :: _ -> fst (d m) | [] -> "batch" in
            ( Printf.sprintf "%s[%d]" kind (List.length ms),
              List.fold_left (fun acc m -> acc + snd (d m)) 8 ms ))
      describe_one
  in
  net_with ~arity:List.length ?describe t

let make_batcher t net =
  let bat =
    Repdb_net.Batcher.create ~sim:t.sim ~n_sites:t.params.n_sites ~size:t.params.batch_size
      ~linger_ms:t.params.batch_linger_ms
      ~ship:(fun ~src ~dst batch -> Repdb_net.Network.send net ~src ~dst batch)
      ()
  in
  t.inflight_fns <-
    (fun f ->
      let n = t.params.n_sites in
      let parked = ref 0 in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if f ~src ~dst then parked := !parked + Repdb_net.Batcher.pending bat ~src ~dst
        done
      done;
      !parked)
    :: t.inflight_fns;
  bat

(* --- per-transaction deadlines -------------------------------------------- *)

let arm_deadline t =
  t.deadline_at <-
    (if t.params.txn_deadline > 0.0 then Sim.now t.sim +. t.params.txn_deadline else infinity)

let deadline_at t = t.deadline_at

(* --- bounded-staleness reads ---------------------------------------------- *)

let note_apply t ~site ~item =
  if Array.length t.apply_mtime > 0 then t.apply_mtime.(site).(item) <- Sim.now t.sim

let staleness t ~site ~item =
  if Array.length t.apply_mtime > 0 then Sim.now t.sim -. t.apply_mtime.(site).(item)
  else Sim.now t.sim

let maybe_wake t =
  if t.clients_running = 0 && t.outstanding = 0 then Condvar.broadcast t.quiesced

(* The one place outside [Epoch] that touches its state: a strong drain
   waits for this broadcast. *)
let maybe_drained t =
  if t.epoch.reconfiguring && t.active_txns = 0 && t.outstanding = 0 then
    Condvar.broadcast t.epoch.drained

let inc_outstanding t = t.outstanding <- t.outstanding + 1

let dec_outstanding t =
  t.outstanding <- t.outstanding - 1;
  assert (t.outstanding >= 0);
  maybe_wake t;
  maybe_drained t

let client_started t = t.clients_running <- t.clients_running + 1

let client_finished t =
  t.clients_running <- t.clients_running - 1;
  assert (t.clients_running >= 0);
  maybe_wake t

let quiescent t = t.clients_running = 0 && t.outstanding = 0

let await_quiescence t =
  while not (quiescent t) do
    Condvar.await t.quiesced
  done;
  t.stopped <- true

(* --- fault injection ------------------------------------------------------ *)

let faulty t = Option.is_some t.injector
let site_up t site = t.site_up.(site)

let await_site_up t site =
  while not t.site_up.(site) do
    Condvar.await t.up_cv.(site)
  done

let crash_site t ~site =
  t.site_up.(site) <- false;
  t.crashes <- t.crashes + 1;
  Metrics.emit t.metrics (Event.Site_crash { site })

let recover_site t ~site ~downtime =
  let wal = t.wals.(site) in
  let lost = t.stores.(site) in
  let recovered = Wal.recover wal ~site in
  (* The redo log hooks every committed write, so the rebuild must reproduce
     the pre-crash image exactly; a mismatch means durability is broken and
     any run that continued from it would be meaningless. The one exception:
     copies scrambled by a corrupt@ clause, which bypasses the log — there
     the rebuild holds the true value, so recovery doubles as repair and the
     mark is cleared. *)
  let rec_contents = Store.contents recovered and lost_contents = Store.contents lost in
  let recovery_ok =
    List.compare_lengths rec_contents lost_contents = 0
    && List.for_all2
      (fun (ri, rv) (li, lv) ->
        ri = li
        && (Value.equal rv lv
            ||
            if Hashtbl.mem t.corrupted (site, ri) then begin
              Hashtbl.remove t.corrupted (site, ri);
              true
            end
            else false))
         rec_contents lost_contents
  in
  if not recovery_ok then
    failwith (Printf.sprintf "Cluster: recovery of site %d diverged from its redo log" site);
  t.stores.(site) <- recovered;
  Wal.reattach wal recovered;
  t.site_up.(site) <- true;
  Metrics.emit t.metrics (Event.Site_recover { site; downtime });
  Condvar.broadcast t.up_cv.(site)

(* --- epoch-switch drain accounting ------------------------------------------ *)

let txn_started t = t.active_txns <- t.active_txns + 1

let txn_finished t =
  t.active_txns <- t.active_txns - 1;
  assert (t.active_txns >= 0);
  maybe_drained t

(* Silently scramble replica copies at [site]: each non-primary copy is
   overwritten with probability [prob] via [Store.restore], which bypasses
   the redo-log hook — the damage is invisible to WAL recovery and only the
   anti-entropy digests can find it. Primary copies are never touched (they
   are the repair source of truth). The RNG is derived from the seed and the
   clause index alone, so corruption is independent of workload progress. *)
let corrupt_site t ~site ~prob ~clause =
  let rng = Rng.create ((t.params.seed * 131071) + (clause * 7919) + 17) in
  let store = t.stores.(site) in
  let n = ref 0 in
  Array.iter
    (fun item ->
      if t.placement.Placement.primary.(item) <> site && Rng.float rng < prob then begin
        let v = Store.read store item in
        Store.restore store item
          (Value.write ~writer:(-2) ~payload:(Printf.sprintf "corrupt.%d" clause) v);
        Hashtbl.replace t.corrupted (site, item) ();
        incr n
      end)
    (Placement.placed_at t.placement site);
  (match t.corrupt_ctr with Some ctr when !n > 0 -> Stats.add ctr ~site !n | _ -> ());
  t.corruption_events <- t.corruption_events + 1;
  Metrics.emit t.metrics (Event.Corrupt { site; items = !n })

let clear_corrupt t ~site ~item = Hashtbl.remove t.corrupted (site, item)

let schedule_faults t =
  match t.injector with
  | None -> ()
  | Some inj ->
      List.iter
        (fun (c : Fault.crash) ->
          Sim.at t.sim c.at (fun () -> crash_site t ~site:c.site);
          Sim.at t.sim (c.at +. c.down_for) (fun () ->
              recover_site t ~site:c.site ~downtime:c.down_for))
        (Fault.schedule inj).crashes;
      List.iteri
        (fun clause (co : Fault.corruption) ->
          Sim.at t.sim co.c_at (fun () ->
              if t.site_up.(co.c_site) then
                corrupt_site t ~site:co.c_site ~prob:co.c_prob ~clause))
        (Fault.schedule inj).corruptions;
      (* Partitions need no link-level action here — the injector's transmit
         plans already park cross-cut messages — but the begin/heal instants
         are counted and traced. *)
      List.iter
        (fun (p : Fault.partition) ->
          let groups = Fault.string_of_groups p.groups in
          Sim.at t.sim p.from_t (fun () ->
              t.partitions <- t.partitions + 1;
              Metrics.emit t.metrics (Event.Partition_begin { groups }));
          Sim.at t.sim p.until_t (fun () ->
              Metrics.emit t.metrics (Event.Partition_heal { groups })))
        (Fault.schedule inj).partitions

let profile_cat t name = Profile.cat (Sim.profile t.sim) name
