(* Self-healing executor: failure detection, automatic failover, anti-entropy.

   Three cooperating background activities, all driven by simulated time so
   runs stay deterministic and byte-identical:

   - {e Heartbeats + detection.} Every site multicasts a heartbeat each
     [heartbeat_every] ms on a dedicated control-plane network (same latency
     model and fault injector as the data nets, but outside the data-plane
     message/outstanding accounting, so heartbeat spam never perturbs the
     comparable metrics). Each site feeds a per-pair φ-accrual
     {!Repdb_heal.Detector}; a single poller fiber turns the per-observer φ
     values into a cluster-level verdict: a site is {e suspected} once a
     strict majority of up, unsuspected observers see φ above
     [phi_threshold], and cleared once the majority evaporates (heartbeats
     resume after recovery and φ collapses).

   - {e Failover.} On suspicion the healer promotes every item primaried at
     the dead site to its lowest-id unsuspected replica holder, through the
     same {!Epoch.switch} operator reconfigurations use, with a weak drain
     (no running transaction attempts and nothing in flight except messages
     parked on unreachable pairs). The dead site keeps every replica-list
     membership (demoted to a replica of the items it used to own), so
     updates parked on its links deliver after recovery as ordinary
     propagation. When the old placement was acyclic the promotion greedily
     retries holder choices to keep the copy graph a DAG (DAG-WT requires
     it; chain protocols tolerate any outcome). A false suspicion therefore
     costs availability (one epoch switch, clients redraw) but never
     consistency.

   - {e Anti-entropy.} A repair session compares one (primary, holder) pair:
     Merkle-style digest narrowing over the shared sorted item list
     ({!Repdb_heal.Digest_tree}), then per-item checksums on mismatching leaf
     chunks, then [Repair] messages shipping the primary's value for each
     divergent item — installed through the hooked {!Store.install} so
     repairs are WAL-durable and clear the corruption bookkeeping. Sessions
     run one at a time: a round-robin background scan every
     [anti_entropy_every] ms, a full scan of a recovered site's holdings at
     unsuspect time (the {e rejoin}), and a final sweep over all pairs after
     quiescence — the backstop that makes convergence unconditional even
     when the relaxed stale-epoch fence dropped propagation. *)

module Sim = Repdb_sim.Sim
module Network = Repdb_net.Network
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Placement = Repdb_workload.Placement
module Digraph = Repdb_graph.Digraph
module Stats = Repdb_obs.Stats
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Detector = Repdb_heal.Detector
module Digest_tree = Repdb_heal.Digest_tree

(* Simulated-time periods (ms) of the heartbeat multicast and detector poll,
   and of the background anti-entropy scan. *)
let heartbeat_every = 25.0
let anti_entropy_every = 200.0

(* Control-plane messages. Requests are sent "as" the acting primary (the
   healer impersonates it) and carry the session's wait, which the response
   fires at the primary's handler: [Some] response, or [None] from the
   session's timer. *)
type msg =
  | Heartbeat
  | Digest_req of { reply : msg option Sim.once; items : int list }
  | Digest_resp of { reply : msg option Sim.once; digest : int; present : int }
  | Check_req of { reply : msg option Sim.once; items : int list }
  | Check_resp of { reply : msg option Sim.once; sums : (int * int option) list }
      (* (item, checksum) — [None] when the holder has no copy at all. *)
  | Repair of { item : int; value : Value.t }

let describe_msg = function
  | Heartbeat -> ("heartbeat", 8)
  | Digest_req { items; _ } -> ("digest-req", 16 + (8 * List.length items))
  | Digest_resp _ -> ("digest-resp", 24)
  | Check_req { items; _ } -> ("check-req", 16 + (8 * List.length items))
  | Check_resp { sums; _ } -> ("check-resp", 16 + (16 * List.length sums))
  | Repair _ -> ("repair", 48)

type summary = {
  suspicions : int;
  false_suspicions : int;  (* suspected while actually up (partition / jitter) *)
  failovers : int;  (* epoch switches executed by the healer *)
  promoted_items : int;
  rejoins : int;
  repair_sessions : int;
  repaired_items : int;  (* values actually installed by [Repair] messages *)
  incidents_open : int;  (* sites still suspected when the run ended *)
  mttr_mean : float;  (* ms, suspicion -> rejoin repair shipped *)
  mttr_max : float;
  failover_mean : float;  (* ms, drain + switch, per failover *)
  stale_drops : int;  (* old-epoch messages dropped by the relaxed fence *)
  corruption_events : int;
  corrupt_items : int;
}

type t = {
  c : Cluster.t;
  net : msg Network.t;
  epoch : Epoch.t;
  dets : Detector.t array array;  (* [dets.(observer).(subject)] *)
  suspected : bool array;
  suspect_since : float array;
  mutable session_busy : bool;
  session_free : Sim.waitq;
  hb_sent : Stats.counter;
  hb_recv : Stats.counter;
  suspect_ctr : Stats.counter;
  session_ctr : Stats.counter;
  repair_ctr : Stats.counter;
  mttr_hist : Stats.histogram;
  failover_hist : Stats.histogram;
  mutable false_suspicions : int;
  mutable promoted_items : int;
}

(* --- Per-site control-plane handler --------------------------------------- *)

(* Runs at delivery time and must never block: store reads, sends and fires
   only. Heal traffic charges no CPU — control-plane overhead is
   deliberately outside the data-plane resource model. *)
let handler t site ~src msg =
  let c = t.c in
  match msg with
  | Heartbeat ->
      Stats.incr t.hb_recv ~site;
      Detector.record t.dets.(site).(src) ~now:(Sim.now c.sim)
  | Digest_req { reply; items } ->
      let store = c.stores.(site) in
      let present = List.fold_left (fun n i -> if Store.mem store i then n + 1 else n) 0 items in
      Network.send t.net ~src:site ~dst:src
        (Digest_resp { reply; digest = Store.digest_over store items; present })
  | Check_req { reply; items } ->
      let store = c.stores.(site) in
      let sums =
        List.map
          (fun i -> (i, if Store.mem store i then Some (Store.checksum store i) else None))
          items
      in
      Network.send t.net ~src:site ~dst:src (Check_resp { reply; sums })
  | Digest_resp { reply; _ } | Check_resp { reply; _ } ->
      (* A response to a session whose timer won is dropped. *)
      ignore (Sim.fire reply (Some msg))
  | Repair { item; value } ->
      (* Validate against the current placement: a repair that raced a
         failover may target a site that no longer holds the item. *)
      if Placement.has_copy c.placement ~site item then begin
        Store.install c.stores.(site) item value;
        Fault_exec.clear_corrupt c ~site ~item;
        Stats.incr t.repair_ctr ~site;
        Metrics.emit c.metrics (Event.Repair_item { item; src; dst = site })
      end

(* --- Repair sessions ------------------------------------------------------ *)

(* One session at a time: the background scan, rejoins and the final sweep
   take turns. Each request has its own wait; the turns fix the event order. *)
let with_session t f =
  while t.session_busy do
    Sim.park t.session_free
  done;
  t.session_busy <- true;
  Fun.protect f ~finally:(fun () ->
      t.session_busy <- false;
      Sim.wake_all t.session_free)

(* Send [primary]'s request [req reply] to [holder] and wait [timeout] ms for
   the response; [None] on timeout. The timer's instant keeps the rounding of
   [now +. (deadline -. now)]. *)
let request t ~primary ~holder ~timeout req =
  let reply = Sim.once () and now = Sim.now t.c.sim in
  Network.send t.net ~src:primary ~dst:holder (req reply);
  let deadline = now +. timeout in
  Sim.after t.c.sim (deadline -. now) (fun () -> ignore (Sim.fire reply None));
  Sim.await reply

exception Session_timeout

(* Compare [holder]'s copies of [primary]'s items against the primary and
   ship repairs for every divergence. Returns [Some shipped] or [None] when
   the pair was skipped (down, suspected, unreachable, nothing shared) or the
   session timed out mid-narrowing. [force] drops the suspicion/liveness
   screen — the final sweep uses ground truth instead of detector state. *)
let run_session ?(force = false) t ~primary ~holder =
  let c = t.c in
  let screened =
    (not force)
    && (t.suspected.(primary) || t.suspected.(holder)
       || (not (Fault_exec.site_up c primary))
       || (not (Fault_exec.site_up c holder))
       || not (Network.reachable t.net ~src:primary ~dst:holder))
  in
  if primary = holder || screened || (force && not (Fault_exec.site_up c holder)) then None
  else begin
    let items =
      Array.to_list (Placement.primaries_at c.placement primary)
      |> List.filter (fun i -> Placement.has_replica c.placement ~site:holder i)
    in
    if items = [] then None
    else begin
      let timeout = Float.max 2000.0 (50.0 *. c.params.latency) in
      let store = c.stores.(primary) in
      let ask = request t ~primary ~holder ~timeout in
      let equal_digest chunk =
        match ask (fun reply -> Digest_req { reply; items = chunk }) with
        | Some (Digest_resp { digest; present; _ }) ->
            digest = Store.digest_over store chunk && present = List.length chunk
        | _ -> raise Session_timeout
      in
      let check_items chunk =
        match ask (fun reply -> Check_req { reply; items = chunk }) with
        | Some (Check_resp { sums; _ }) ->
            List.filter_map
              (fun (item, remote) ->
                match remote with
                | Some sum when sum = Store.checksum store item -> None
                | _ -> Some item)
              sums
        | _ -> raise Session_timeout
      in
      match Digest_tree.narrow ~fanout:4 ~leaf:8 ~equal_digest ~check_items items with
      | exception Session_timeout -> None
      | mismatched ->
          Stats.incr t.session_ctr ~site:holder;
          List.iter
            (fun item ->
              Network.send t.net ~src:primary ~dst:holder
                (Repair { item; value = Store.read store item }))
            mismatched;
          if mismatched <> [] then
            Metrics.emit c.metrics
              (Event.Repair_session { primary; holder; mismatched = List.length mismatched });
          Some (List.length mismatched)
    end
  end

(* Ordered (primary, holder) pairs that share at least one item, ascending —
   the background scan's round-robin universe, recomputed from the current
   placement every tick so failovers retarget the scan. *)
let pairs_of (pl : Placement.t) m =
  let acc = ref [] in
  for p = m - 1 downto 0 do
    let holds = Array.make m false in
    Array.iter
      (fun item -> Array.iter (fun h -> holds.(h) <- true) pl.replicas.(item))
      (Placement.primaries_at pl p);
    for h = m - 1 downto 0 do
      if holds.(h) && h <> p then acc := (p, h) :: !acc
    done
  done;
  !acc

(* --- Failover ------------------------------------------------------------- *)

(* New placement with every item primaried at [dead] promoted to an
   unsuspected replica holder; [dead] is demoted into those items' replica
   lists so parked propagation still has a destination and rejoin repair has
   a pair to scrub. Unreplicated (or wholly-suspected) items stay put and
   simply stall until their site returns. *)
let promote t (pl : Placement.t) ~dead =
  let m = t.c.params.n_sites in
  (* Preserve acyclicity when the old graph had it (DAG-WT's hard
     invariant): a holder choice is accepted only if the placement built so
     far is still a DAG, re-tested per item with all earlier choices
     included. An item with no DAG-preserving (or no unsuspected) holder is
     simply not promoted — it stalls until its site returns, which costs
     availability on that item but never breaks the protocol. *)
  let must_dag = Digraph.is_dag (Placement.copy_graph pl) in
  let chosen = Hashtbl.create 16 in
  (* item -> promoted primary *)
  let build () =
    let primary = Array.copy pl.Placement.primary in
    let replicas =
      Array.init pl.Placement.n_items (fun i -> Array.to_list pl.Placement.replicas.(i))
    in
    Hashtbl.iter
      (fun item p' ->
        primary.(item) <- p';
        replicas.(item) <-
          dead :: List.filter (fun h -> h <> p') (Array.to_list pl.Placement.replicas.(item)))
      chosen;
    Placement.make ~n_sites:m ~n_items:pl.Placement.n_items ~primary ~replicas
  in
  let cands_of item =
    List.filter
      (fun h -> h <> dead && not t.suspected.(h))
      (Array.to_list pl.Placement.replicas.(item))
  in
  let items = Array.to_list (Placement.primaries_at pl dead) in
  (* Optimistic joint promotion first: promote every promotable item to its
     lowest-id unsuspected holder and test the complete assignment once.
     When everything promotes, [dead] keeps no outgoing edges (it becomes a
     copy-graph sink), so this nearly always stays acyclic — whereas items
     probed one at a time veto each other through the dead site's stale
     outgoing edges for the still-unpromoted rest. *)
  List.iter
    (fun item ->
      match cands_of item with [] -> () | h :: _ -> Hashtbl.replace chosen item h)
    items;
  if must_dag && not (Digraph.is_dag (Placement.copy_graph (build ()))) then begin
    (* Rare fallback (partial promotability, unusual graphs): rebuild the
       choice set item by item, accepting a holder only if the incremental
       assignment stays a DAG, iterated to a fixpoint so items vetoed early
       get retried once their neighbours promote away. *)
    Hashtbl.reset chosen;
    let try_item item =
      let rec try_cands = function
        | [] -> false
        | h :: rest ->
            Hashtbl.replace chosen item h;
            if not (Digraph.is_dag (Placement.copy_graph (build ()))) then begin
              Hashtbl.remove chosen item;
              try_cands rest
            end
            else true
      in
      try_cands (cands_of item)
    in
    let pending = ref items in
    let progress = ref true in
    while !progress && !pending <> [] do
      progress := false;
      pending :=
        List.filter
          (fun item ->
            if try_item item then begin
              progress := true;
              false
            end
            else true)
          !pending
    done
  end;
  let promoted = Hashtbl.length chosen in
  if promoted = 0 then (pl, 0) else (build (), promoted)

(* Fail [dead]'s primaries over through a weak-drain epoch switch. The
   suspicion is re-validated once the switch is held: it may have cleared (or
   the run ended) while this fiber queued behind an operator
   reconfiguration. *)
let failover t ~dead =
  let c = t.c in
  let t0 = ref 0.0 and promoted = ref 0 in
  let admit () =
    let valid = (not (Cluster.stopped c)) && t.suspected.(dead) in
    if valid then begin
      t0 := Sim.now c.sim;
      Metrics.emit c.metrics (Event.Failover_begin { site = dead; epoch = Epoch.current c + 1 })
    end;
    valid
  in
  let next pl =
    let np, n = promote t pl ~dead in
    promoted := n;
    if n > 0 then Some np else None
  in
  if (not (Cluster.stopped c)) && Epoch.switch t.epoch Epoch.Weak ~admit next then begin
    let duration = Sim.now c.sim -. !t0 in
    (* A switch whose promotion declined moved no primary: not a failover. *)
    if !promoted > 0 then begin
      t.promoted_items <- t.promoted_items + !promoted;
      Stats.observe t.failover_hist ~site:dead duration
    end;
    Metrics.emit c.metrics
      (Event.Failover_done { site = dead; epoch = Epoch.current c; duration; promoted = !promoted })
  end

(* --- Rejoin --------------------------------------------------------------- *)

(* A cleared site rejoins by scrubbing everything it holds against the
   current primaries — one session per primary. Recovery already replayed the
   WAL (so only unlogged divergence — corruption, fence-dropped propagation —
   survives to be found here). Closes the MTTR incident. *)
let rejoin t ~site ~since =
  let c = t.c in
  let repaired = ref 0 in
  for p = 0 to c.params.n_sites - 1 do
    if p <> site then
      match with_session t (fun () -> run_session t ~primary:p ~holder:site) with
      | Some n -> repaired := !repaired + n
      | None -> ()
  done;
  Stats.observe t.mttr_hist ~site (Sim.now c.sim -. since);
  Metrics.emit c.metrics (Event.Rejoin { site; repaired = !repaired })

(* --- Background fibers ---------------------------------------------------- *)

let start_heartbeats t =
  let c = t.c in
  let m = c.params.n_sites in
  for site = 0 to m - 1 do
    let beat () =
      (* A crashed site is silent; its peers' φ grows. *)
      if Fault_exec.site_up c site then
        for dst = 0 to m - 1 do
          if dst <> site then begin
            Network.send t.net ~src:site ~dst Heartbeat;
            Stats.incr t.hb_sent ~site
          end
        done
    in
    Sim.spawn c.sim (fun () ->
        beat ();
        Cluster.every c heartbeat_every beat)
  done

(* Median φ per subject over up observers — the timeline's phi.N columns. *)
let phi_snapshot t () =
  let c = t.c in
  let m = c.params.n_sites in
  let now = Sim.now c.sim in
  Array.init m (fun s ->
      let vals = ref [] in
      for o = 0 to m - 1 do
        if o <> s && Fault_exec.site_up c o then
          vals := Detector.phi t.dets.(o).(s) ~now :: !vals
      done;
      match List.sort compare !vals with
      | [] -> 0.0
      | l -> List.nth l (List.length l / 2))

let start_poller t =
  let c = t.c in
  let m = c.params.n_sites in
  Sim.spawn c.sim (fun () ->
      Cluster.every c heartbeat_every (fun () ->
          let now = Sim.now c.sim in
          for s = 0 to m - 1 do
            (* Observers: up, unsuspected peers — a silent or distrusted
               site files no report. Strict majority of them must agree. *)
            let over = ref 0 and obs = ref 0 in
            for o = 0 to m - 1 do
              if o <> s && Fault_exec.site_up c o && not t.suspected.(o) then begin
                incr obs;
                if Detector.phi t.dets.(o).(s) ~now > c.params.phi_threshold then incr over
              end
            done;
            let majority = (!obs / 2) + 1 in
            if (not t.suspected.(s)) && !obs > 0 && !over >= majority then begin
              t.suspected.(s) <- true;
              t.suspect_since.(s) <- now;
              if Fault_exec.site_up c s then t.false_suspicions <- t.false_suspicions + 1;
              Stats.incr t.suspect_ctr ~site:s;
              if Trace.on (Metrics.trace c.metrics) then
                Metrics.emit c.metrics
                  (Event.Suspect { site = s; phi = (phi_snapshot t ()).(s) });
              Sim.spawn c.sim (fun () -> failover t ~dead:s)
            end
            else if t.suspected.(s) && !over < majority then begin
              t.suspected.(s) <- false;
              let since = t.suspect_since.(s) in
              Metrics.emit c.metrics (Event.Unsuspect { site = s; downtime = now -. since });
              Sim.spawn c.sim (fun () -> rejoin t ~site:s ~since)
            end
          done))

let start_anti_entropy t =
  let c = t.c in
  let m = c.params.n_sites in
  let cursor = ref 0 in
  Sim.spawn c.sim (fun () ->
      Cluster.every c anti_entropy_every (fun () ->
          (* Pause the scan during epoch switches: sessions read the
             placement and must not race the swap. *)
          if not (Epoch.switching c) then
            match pairs_of c.placement m with
            | [] -> ()
            | pairs ->
                let p, h = List.nth pairs (!cursor mod List.length pairs) in
                incr cursor;
                ignore (with_session t (fun () -> run_session t ~primary:p ~holder:h))))

(* --- Lifecycle ------------------------------------------------------------ *)

let schedule (c : Cluster.t) epoch =
  let p = c.params in
  let m = p.n_sites in
  (* Dedicated control-plane net: same latency model and fault injector as
     the data nets, but no stats/trace/outstanding coupling — heartbeat spam
     stays out of the comparable data-plane metrics. *)
  let net =
    Network.create ~sim:c.sim ~n_sites:m ~latency:(Cluster.latency_fn c) ~describe:describe_msg
      ?injector:c.injector ()
  in
  let now = Sim.now c.sim in
  let dets =
    Array.init m (fun _ ->
        Array.init m (fun _ -> Detector.create ~hb_every:heartbeat_every ~now ()))
  in
  let stats = Metrics.stats c.metrics in
  let t =
    {
      c;
      net;
      epoch;
      dets;
      suspected = Array.make m false;
      suspect_since = Array.make m 0.0;
      session_busy = false;
      session_free = Sim.waitq c.sim;
      hb_sent = Stats.counter stats "detector.hb_sent";
      hb_recv = Stats.counter stats "detector.hb_recv";
      suspect_ctr = Stats.counter stats "detector.suspect";
      session_ctr = Stats.counter stats "repair.sessions";
      repair_ctr = Stats.counter stats "repair.items";
      mttr_hist = Stats.histogram stats "heal.mttr";
      failover_hist = Stats.histogram stats "heal.failover";
      false_suspicions = 0;
      promoted_items = 0;
    }
  in
  for site = 0 to m - 1 do
    Network.set_handler net site (handler t site)
  done;
  Metrics.set_phi c.metrics (phi_snapshot t);
  start_heartbeats t;
  start_poller t;
  start_anti_entropy t;
  t

let final_sweep t ~at =
  let c = t.c in
  let m = c.params.n_sites in
  Sim.spawn_at c.sim at (fun () ->
      for p = 0 to m - 1 do
        for h = 0 to m - 1 do
          if p <> h then
            ignore (with_session t (fun () -> run_session ~force:true t ~primary:p ~holder:h))
        done
      done)

(* Every count and sum is read from the registry; only the false-suspicion
   and promotion totals have no Stats entry. *)
let summary t : summary =
  let c = t.c in
  let corruption_events, corrupt_items = Fault_exec.corruption c in
  let total = function Some ctr -> Stats.counter_total ctr | None -> 0 in
  let all = -1 in
  {
    suspicions = Stats.counter_total t.suspect_ctr;
    false_suspicions = t.false_suspicions;
    failovers = Stats.histogram_count t.failover_hist ~site:all;
    promoted_items = t.promoted_items;
    rejoins = Stats.histogram_count t.mttr_hist ~site:all;
    repair_sessions = Stats.counter_total t.session_ctr;
    repaired_items = Stats.counter_total t.repair_ctr;
    incidents_open = Array.fold_left (fun n s -> if s then n + 1 else n) 0 t.suspected;
    mttr_mean = Stats.histogram_mean t.mttr_hist ~site:all;
    mttr_max = Stats.histogram_max t.mttr_hist ~site:all;
    failover_mean = Stats.histogram_mean t.failover_hist ~site:all;
    stale_drops = total c.epoch.stale_drop_ctr;
    corruption_events;
    corrupt_items;
  }

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "healing: %d suspicions (%d false), %d failovers (%d items promoted, mean %.1f ms), %d \
     rejoins, MTTR mean %.1f / max %.1f ms@ repair: %d sessions, %d items repaired, %d copies \
     corrupted in %d events, %d stale-epoch drops, %d incidents open"
    s.suspicions s.false_suspicions s.failovers s.promoted_items s.failover_mean s.rejoins
    s.mttr_mean s.mttr_max s.repair_sessions s.repaired_items s.corrupt_items s.corruption_events
    s.stale_drops s.incidents_open
