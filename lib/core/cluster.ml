module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Condvar = Repdb_sim.Condvar
module Store = Repdb_store.Store
module Wal = Repdb_store.Wal
module Lock_mgr = Repdb_lock.Lock_mgr
module Fault = Repdb_fault.Fault
module Reconfig = Repdb_reconfig.Reconfig
module History = Repdb_txn.History
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Trace = Repdb_obs.Trace
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Timeline = Repdb_obs.Timeline

type epoch = {
  mutable config_epoch : int;
  mutable reconfiguring : bool;
  resume : Condvar.t; (* broadcast when the epoch switch completes *)
  mutable reconfigs : int;
  mutable state_transfers : int;
  mutable stall_total : float;
  switch_hist : Stats.histogram option;
  stall_hist : Stats.histogram option;
  stale_drop_ctr : Stats.counter option; (* "heal.stale_drop", heal only *)
}

(* Fault-injection state, allocated only when an injector exists; owned by
   [Fault_exec]. *)
type faults = {
  wals : Wal.t array; (* one redo log per site *)
  site_up : bool array;
  up_cv : Condvar.t array; (* broadcast when the site restarts *)
  mutable crashes : int;
  mutable partitions : int; (* partition windows that have activated *)
  corrupted : (int * int, unit) Hashtbl.t;
      (* (site, item) replica copies silently scrambled by a corrupt@ fault
         clause and not yet repaired; recovery and anti-entropy clear marks. *)
  mutable corruption_events : int;
  corrupt_ctr : Stats.counter option; (* "corrupt.items", heal only *)
}

(* Run state: what the driver and the epoch drains wait on. Only the
   functions below read or write it. *)
type run = {
  mutable outstanding : int; (* in-flight messages / pending remote work *)
  mutable clients_running : int;
  mutable active_txns : int; (* transaction attempts executing *)
  mutable stopped_at : float; (* when the stop flag was set; [infinity] before *)
  quiesced : Condvar.t; (* broadcast when [quiescent] may have become true *)
  drained : Condvar.t; (* broadcast when [drained] may have become true *)
  mutable inflight_fns : ((src:int -> dst:int -> bool) -> int) list;
      (* Per network: in-flight messages on pairs selected by the
         predicate. *)
  mutable retries_exhausted : int;
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
  injector : Fault.injector option;
  faults : faults option; (* [Some] iff [injector] is; owned by [Fault_exec] *)
  run : run;
  epoch : epoch; (* owned by [Epoch] *)
}

let create_with ?latency ?(trace = false) ?trace_capacity (params : Params.t) placement =
  Params.validate params;
  let lat_fn = match latency with Some f -> f | None -> fun _ _ -> params.latency in
  let sim = Sim.create () in
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
  let cpus = Array.init n_machines (fun _ -> Resource.create ~sim ~capacity:1 ()) in
  let injector =
    if Fault.is_empty params.faults then None
    else Some (Fault.injector ~n_sites:m ~seed:((params.seed * 69069) + 13) params.faults)
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
  (* Redo logs are only attached under fault injection: they hook every
     committed write, and fault-free runs never crash. *)
  let faults =
    Option.map
      (fun _ ->
        {
          wals =
            Array.map
              (fun store ->
                let wal = Wal.create () in
                Wal.attach wal store;
                wal)
              stores;
          site_up = Array.make m true;
          up_cv = Array.init m (fun _ -> Condvar.create ());
          crashes = 0;
          partitions = 0;
          corrupted = Hashtbl.create 16;
          corruption_events = 0;
          corrupt_ctr;
        })
      injector
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
    injector;
    faults;
    run =
      {
        outstanding = 0;
        clients_running = 0;
        active_txns = 0;
        stopped_at = infinity;
        quiesced = Condvar.create ();
        drained = Condvar.create ();
        inflight_fns = [];
        retries_exhausted = 0;
      };
    epoch =
      {
        config_epoch = 0;
        reconfiguring = false;
        resume = Condvar.create ();
        reconfigs = 0;
        state_transfers = 0;
        stall_total = 0.0;
        switch_hist;
        stall_hist;
        stale_drop_ctr;
      };
  }

let create ?trace (params : Params.t) =
  let placement_rng = Rng.create params.seed in
  create_with ?trace params (Placement.generate placement_rng params)

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

(* Every network registers its in-flight count on the pairs a predicate
   selects: the timeline samples all pairs, the weak drain the parked ones. *)
let make_net ?describe t =
  let net =
    Repdb_net.Network.create ~sim:t.sim ~n_sites:t.params.n_sites ~latency:(latency_fn t)
      ~trace:(Metrics.trace t.metrics) ?describe ~stats:(Metrics.stats t.metrics)
      ?injector:t.injector ()
  in
  t.run.inflight_fns <-
    (fun f -> Repdb_net.Network.in_flight_matching net ~f) :: t.run.inflight_fns;
  net

let deadline t =
  if t.params.txn_deadline > 0.0 then Sim.now t.sim +. t.params.txn_deadline else infinity

(* --- run state ---------------------------------------------------------------- *)

let quiescent t = t.run.clients_running = 0 && t.run.outstanding = 0

let in_flight ?(only = fun ~src:_ ~dst:_ -> true) t =
  List.fold_left (fun acc f -> acc + f only) 0 t.run.inflight_fns

let drained ?parked t =
  t.run.active_txns = 0
  && t.run.outstanding - (match parked with None -> 0 | Some only -> in_flight ~only t) <= 0

let maybe_wake t = if quiescent t then Condvar.broadcast t.run.quiesced

(* Only a strong drain waits on [drained], so outside an epoch switch the
   queue is empty and the broadcast does nothing. *)
let maybe_drained t = if drained t then Condvar.broadcast t.run.drained

let inc_outstanding t = t.run.outstanding <- t.run.outstanding + 1

let dec_outstanding t =
  t.run.outstanding <- t.run.outstanding - 1;
  assert (t.run.outstanding >= 0);
  maybe_wake t;
  maybe_drained t

let client_started t = t.run.clients_running <- t.run.clients_running + 1

let client_finished t =
  t.run.clients_running <- t.run.clients_running - 1;
  assert (t.run.clients_running >= 0);
  maybe_wake t

let await_quiescence t =
  while not (quiescent t) do
    Condvar.await t.run.quiesced
  done;
  t.run.stopped_at <- Sim.now t.sim

let stopped t = t.run.stopped_at < infinity
let stopped_at t = t.run.stopped_at

let rec every t period f =
  if not (stopped t) then begin
    Sim.delay period;
    if not (stopped t) then begin
      f ();
      every t period f
    end
  end

let busy t =
  let r = t.run in
  [ ("clients", r.clients_running); ("outstanding", r.outstanding); ("active_txns", r.active_txns) ]
  |> List.filter_map (fun (name, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" name n))
  |> String.concat " "

let txn_started t = t.run.active_txns <- t.run.active_txns + 1

let txn_finished t =
  t.run.active_txns <- t.run.active_txns - 1;
  assert (t.run.active_txns >= 0);
  maybe_drained t

let active_txns t = t.run.active_txns

let await_drained t =
  while not (drained t) do
    Condvar.await t.run.drained
  done

let exhaust_retries t = t.run.retries_exhausted <- t.run.retries_exhausted + 1
let retries_exhausted t = t.run.retries_exhausted
