module Sim = Repdb_sim.Sim
module Condvar = Repdb_sim.Condvar
module Mailbox = Repdb_sim.Mailbox
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Digraph = Repdb_graph.Digraph
module Tree = Repdb_graph.Tree
module Backedge = Repdb_graph.Backedge
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn

let name = "backedge"
let updates_replicas = true

(* Safety nets on top of victimisation, derived from the params (see the .mli
   for the derivation): how long a primary waits per round for its special
   message before giving up, and how many lock-wait rounds a backedge
   subtransaction retries before notifying its origin. *)
let origin_wait (p : Repdb_workload.Params.t) =
  2.0 *. float_of_int (max 1 (p.n_sites - 1)) *. (p.lock_timeout +. p.latency)

let participant_retry_cap (p : Repdb_workload.Params.t) =
  int_of_float (ceil (origin_wait p /. p.lock_timeout)) + 1

type chain_msg =
  | Normal of { gid : int; writes : int list; origin_commit : float; epoch : int }
  | Special of { gid : int; origin : int; writes : int list; epoch : int }

type direct_msg =
  | Exec_request of { gid : int; origin : int; writes : int list }
  | Decide of { gid : int; commit : bool; origin_commit : float }
  | Exec_failed of { gid : int }

type pending = {
  p_gid : int;
  mutable p_state : [ `Waiting | `Special_arrived | `Failed of Txn.abort_reason ];
  p_cv : Condvar.t;
}

type participant = {
  bp_gid : int;
  bp_origin : int;
  bp_attempt : int;
  bp_items : int list; (* replicas staged at this site *)
  mutable bp_state : [ `Executing | `Staged | `Cancelled ];
}

type t = {
  c : Cluster.t;
  mutable tr : Tree.t;
  retree : unit -> Tree.t; (* rebuild the tree for the current placement *)
  tree_net : chain_msg list Network.t; (* one physical message = one coalesced run *)
  tree_bat : chain_msg Batcher.t;
  direct_net : direct_msg Network.t;
  mutable in_subtree : Routing.subtree_map;
      (* site -> item bitset -> replica within subtree(site) *)
  pending_by_attempt : (int, pending) Hashtbl.t array; (* per site *)
  pending_by_gid : (int, pending) Hashtbl.t;
  participants : (int, participant) Hashtbl.t array; (* per site, by gid *)
  participants_by_attempt : (int, participant) Hashtbl.t array;
  aborted_gids : (int, unit) Hashtbl.t array;
  ow : float; (* origin wait per round, ms; derived from params *)
  retry_cap : int; (* participant lock-wait rounds before Exec_failed *)
}

let tree t = t.tr

let backedges t =
  List.filter
    (fun (u, v) -> Tree.is_ancestor t.tr v u)
    (Digraph.edges (Placement.copy_graph t.c.placement))

(* --- placement / routing helpers ---------------------------------------- *)

(* Replica sites that are strict tree ancestors of [site], sorted by depth:
   the eager targets of a transaction writing [writes]; the head is the
   farthest from [site] (closest to the root). *)
let backedge_targets t site writes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun item ->
      Array.iter
        (fun s -> if s <> site && Tree.is_ancestor t.tr s site then Hashtbl.replace tbl s ())
        t.c.placement.replicas.(item))
    writes;
  let targets = Hashtbl.fold (fun s () acc -> s :: acc) tbl [] in
  List.sort (fun a b -> compare (Tree.depth t.tr a) (Tree.depth t.tr b)) targets

(* Forward a normal (lazy) subtransaction to every relevant tree child.
   Non-blocking. Returns the number of sends. *)
let forward_normal t site (gid, writes, origin_commit) =
  let children = Routing.relevant_children t.in_subtree t.tr site writes in
  List.iter
    (fun child ->
      Cluster.inc_outstanding t.c;
      Batcher.push t.tree_bat ~src:site ~dst:child
        (Normal { gid; writes; origin_commit; epoch = Epoch.current t.c }))
    children;
  List.length children

(* The unique child of [site] on the tree path towards [origin]. *)
let next_hop t site origin =
  match Tree.path_down t.tr site origin with
  | hop :: _ -> hop
  | [] -> invalid_arg "Backedge_proto: no path to origin"

(* --- deadlock victimisation -------------------------------------------- *)

(* A lock wait at [site] timed out while items were needed by a secondary or
   backedge subtransaction. Abort blockers that are parked backedge
   primaries; notify the origins of blockers that are staged backedge
   subtransactions (the paper's rule: the primary in backedge wait is the
   victim, never the secondary that must eventually complete). *)
let victimise t site items =
  let locks = t.c.locks.(site) in
  let blockers =
    List.concat_map (fun item -> List.map fst (Lock_mgr.holders locks item)) items
    |> List.sort_uniq compare
  in
  List.iter
    (fun attempt ->
      match Hashtbl.find_opt t.pending_by_attempt.(site) attempt with
      | Some p when p.p_state = `Waiting ->
          p.p_state <- `Failed Txn.Deadlock;
          Condvar.broadcast p.p_cv
      | _ -> (
          match Hashtbl.find_opt t.participants_by_attempt.(site) attempt with
          | Some bp when bp.bp_state <> `Cancelled ->
              Cluster.inc_outstanding t.c;
              Network.send t.direct_net ~src:site ~dst:bp.bp_origin (Exec_failed { gid = bp.bp_gid })
          | _ -> ()))
    blockers

(* --- backedge subtransactions ------------------------------------------ *)

(* Execute a backedge subtransaction at a target site: exclusive locks on the
   local replicas, writes staged but not applied, locks kept. Returns the
   participant on success. *)
let run_participant t ~gid ~origin ~site items =
  let c = t.c in
  let rec attempt_loop tries =
    if Hashtbl.mem t.aborted_gids.(site) gid then None
    else if tries > t.retry_cap then begin
      Cluster.inc_outstanding c;
      Network.send t.direct_net ~src:site ~dst:origin (Exec_failed { gid });
      None
    end
    else begin
      let attempt = Cluster.fresh_attempt c in
      let bp =
        { bp_gid = gid; bp_origin = origin; bp_attempt = attempt; bp_items = items; bp_state = `Executing }
      in
      Hashtbl.replace t.participants.(site) gid bp;
      Hashtbl.replace t.participants_by_attempt.(site) attempt bp;
      match Exec.acquire_writes c ~gid ~attempt ~site items with
      | Ok () when bp.bp_state = `Executing ->
          bp.bp_state <- `Staged;
          let tr = Metrics.trace c.metrics in
          if Repdb_obs.Trace.on tr then
            Repdb_obs.Trace.record tr (Repdb_obs.Event.Backedge_stage { gid; site });
          Some bp
      | Ok () ->
          (* Cancelled (Decide abort) while waiting for the last lock. *)
          Exec.abort_local c ~attempt ~site;
          Hashtbl.remove t.participants.(site) gid;
          Hashtbl.remove t.participants_by_attempt.(site) attempt;
          None
      | Error _ ->
          Exec.abort_local c ~attempt ~site;
          Hashtbl.remove t.participants.(site) gid;
          Hashtbl.remove t.participants_by_attempt.(site) attempt;
          if bp.bp_state = `Cancelled then None
          else begin
            victimise t site items;
            attempt_loop (tries + 1)
          end
    end
  in
  attempt_loop 0

(* The special chases the normals committed before it down the same chain
   FIFO — [push_now] flushes any parked normals on the hop first, so the
   special can never overtake them inside the batcher. *)
let forward_special t ~src (gid, origin, writes) =
  Cluster.inc_outstanding t.c;
  Batcher.push_now t.tree_bat ~src ~dst:(next_hop t src origin)
    (Special { gid; origin; writes; epoch = Epoch.current t.c })

(* --- tree applier -------------------------------------------------------- *)

let process_tree_msg t site msg =
  let c = t.c in
  (* Epoch fence: the operator coordinator drains all in-flight propagation
     before it switches routing, so tree messages never cross an epoch
     boundary — except after a healer failover, whose weak drain lets
     messages parked behind the outage surface under the new epoch. Those
     are dropped with accounting (a dropped Special simply lets its origin's
     wait time out; anti-entropy repairs dropped Normals). *)
  let epoch = match msg with Normal { epoch; _ } | Special { epoch; _ } -> epoch in
  if Epoch.stale c ~site ~epoch then Cluster.dec_outstanding c
  else begin
  Cluster.use_cpu c site c.params.cpu_msg;
  match msg with
  | Normal { gid; writes; origin_commit; epoch = _ } ->
      let items = Routing.local_replicas c.placement site writes in
      (* A timed-out wait is the paper's deadlock signal: victimise the
         blockers after every failed round. *)
      Exec.apply_secondary ~on_retry:(fun () -> victimise t site items) c ~gid ~site
        ~origin_commit items;
      let sent = forward_normal t site (gid, writes, origin_commit) in
      Cluster.dec_outstanding c;
      if sent > 0 then Cluster.use_cpu c site (float_of_int sent *. c.params.cpu_msg)
  | Special { gid; origin; writes; epoch = _ } ->
      if site = origin then begin
        (* All earlier secondaries have committed here: wake the primary. *)
        (match Hashtbl.find_opt t.pending_by_gid gid with
        | Some p when p.p_state = `Waiting ->
            p.p_state <- `Special_arrived;
            Condvar.broadcast p.p_cv
        | _ -> ());
        Cluster.dec_outstanding c
      end
      else begin
        let items = Routing.local_replicas c.placement site writes in
        let proceed =
          if items = [] || Hashtbl.mem t.aborted_gids.(site) gid then
            not (Hashtbl.mem t.aborted_gids.(site) gid)
          else
            match run_participant t ~gid ~origin ~site items with
            | Some _ -> true
            | None -> false
        in
        if proceed then forward_special t ~src:site (gid, origin, writes);
        Cluster.dec_outstanding c
      end
  end

let tree_applier t site =
  let inbox = Network.inbox t.tree_net site in
  let rec loop () =
    let _, batch = Mailbox.recv inbox in
    List.iter
      (fun msg ->
        (match msg with
        | Normal { gid; _ } ->
            Metrics.secondary_recv t.c.metrics ~gid ~site;
            Metrics.queue_depth t.c.metrics ~site ~queue:"tree" ~depth:(Mailbox.length inbox)
        | Special _ -> ());
        process_tree_msg t site msg)
      batch;
    loop ()
  in
  loop ()

(* --- direct message handling ------------------------------------------- *)

let handle_direct t site msg =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  match msg with
  | Exec_request { gid; origin; writes } ->
      let items = Routing.local_replicas c.placement site writes in
      (match run_participant t ~gid ~origin ~site items with
      | Some _ -> forward_special t ~src:site (gid, origin, writes)
      | None -> ());
      Cluster.dec_outstanding c
  | Decide { gid; commit; origin_commit } ->
      (match Hashtbl.find_opt t.participants.(site) gid with
      | Some bp -> begin
          match bp.bp_state with
          | `Staged ->
              let tr = Metrics.trace c.metrics in
              if Repdb_obs.Trace.on tr then
                Repdb_obs.Trace.record tr (Repdb_obs.Event.Backedge_decide { gid; site; commit });
              if commit then begin
                Exec.apply_writes c ~gid ~site bp.bp_items;
                Metrics.propagation c.metrics ~gid ~site ~delay:(Sim.now c.sim -. origin_commit)
              end
              else History.discard_attempt c.history ~attempt:bp.bp_attempt;
              Exec.release c ~attempt:bp.bp_attempt ~site;
              Hashtbl.remove t.participants.(site) gid;
              Hashtbl.remove t.participants_by_attempt.(site) bp.bp_attempt;
              if not commit then Hashtbl.replace t.aborted_gids.(site) gid ()
          | `Executing ->
              (* Still fighting for locks; flag it and unpark the wait. *)
              assert (not commit);
              bp.bp_state <- `Cancelled;
              Hashtbl.replace t.aborted_gids.(site) gid ();
              ignore (Lock_mgr.abort_waiter c.locks.(site) ~owner:bp.bp_attempt)
          | `Cancelled -> ()
        end
      | None -> if not commit then Hashtbl.replace t.aborted_gids.(site) gid ());
      Cluster.dec_outstanding c
  | Exec_failed { gid } ->
      (match Hashtbl.find_opt t.pending_by_gid gid with
      | Some p when p.p_state = `Waiting ->
          p.p_state <- `Failed Txn.Deadlock;
          Condvar.broadcast p.p_cv
      | _ -> ());
      Cluster.dec_outstanding c

let direct_server t site =
  let inbox = Network.inbox t.direct_net site in
  let rec loop () =
    let _, msg = Mailbox.recv inbox in
    (* Each request runs in its own process: Exec_request can block on locks
       and must not hold up Decide / Exec_failed traffic behind it. *)
    Sim.spawn t.c.sim (fun () -> handle_direct t site msg);
    loop ()
  in
  loop ()

(* --- construction -------------------------------------------------------- *)

(* Every copy-graph edge must connect tree-comparable sites: descendants get
   lazy propagation, ancestors eager backedge subtransactions. *)
let validate_tree g tr =
  List.for_all
    (fun (u, v) -> Tree.is_ancestor tr u v || Tree.is_ancestor tr v u)
    (Digraph.edges g)

let make_with_tree (c : Cluster.t) ~retree tr =
  let g = Placement.copy_graph c.placement in
  if not (validate_tree g tr) then
    invalid_arg "Backedge_proto: tree leaves a copy-graph edge between incomparable sites";
  let m = c.params.n_sites in
  let tree_net =
    Cluster.make_batch_net c ~describe_one:(function
      | Normal { writes; _ } -> ("normal", 24 + (8 * List.length writes))
      | Special { writes; _ } -> ("special", 32 + (8 * List.length writes)))
  in
  let t =
    {
      c;
      tr;
      retree;
      tree_net;
      tree_bat = Cluster.make_batcher c tree_net;
      direct_net =
        Cluster.make_net c ~describe:(function
          | Exec_request { writes; _ } -> ("exec-request", 32 + (8 * List.length writes))
          | Decide _ -> ("decide", 24)
          | Exec_failed _ -> ("exec-failed", 16));
      in_subtree = Routing.subtree_replicas c.placement tr;
      pending_by_attempt = Array.init m (fun _ -> Hashtbl.create 8);
      pending_by_gid = Hashtbl.create 32;
      participants = Array.init m (fun _ -> Hashtbl.create 8);
      participants_by_attempt = Array.init m (fun _ -> Hashtbl.create 8);
      aborted_gids = Array.init m (fun _ -> Hashtbl.create 32);
      ow = origin_wait c.params;
      retry_cap = participant_retry_cap c.params;
    }
  in
  (* Under a reconfiguration plan or a healer failover a root site may
     acquire a tree parent at an epoch switch, so every site needs a
     (possibly idle) applier; otherwise, spawn exactly as before — spawn
     counts feed the event tie-break order, and static runs must stay
     byte-identical. *)
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to m - 1 do
    if Epoch.planned c || Tree.parent tr site <> -1 then
      Sim.spawn ~cat c.sim (fun () -> tree_applier t site);
    Sim.spawn ~cat c.sim (fun () -> direct_server t site)
  done;
  t

(* Callers that hand-build a tree keep it across epoch switches (it is
   re-validated against the new copy graph at each switch). *)
let create_with_tree (c : Cluster.t) tr = make_with_tree c ~retree:(fun () -> tr) tr

(* The paper's evaluated variant: the chain over the total site order. The
   chain makes every pair of sites tree-comparable, so it survives any
   reconfiguration unchanged. *)
let create (c : Cluster.t) =
  let tr = Tree.chain_of_order (Array.init c.params.n_sites Fun.id) in
  make_with_tree c ~retree:(fun () -> tr) tr

let create_with_order (c : Cluster.t) order =
  let m = c.params.n_sites in
  if Array.length order <> m then invalid_arg "Backedge_proto: order has the wrong length";
  let seen = Array.make m false in
  Array.iter
    (fun s ->
      if s < 0 || s >= m || seen.(s) then invalid_arg "Backedge_proto: order is not a permutation";
      seen.(s) <- true)
    order;
  let tr = Tree.chain_of_order order in
  make_with_tree c ~retree:(fun () -> tr) tr

(* The general variant: delete a minimal DFS backedge set, then chain every
   weakly-connected component of the *full* copy graph in a topological order
   of the residual DAG (so unrelated components never exchange messages). *)
let general_tree (c : Cluster.t) =
  let g = Placement.copy_graph c.placement in
  let gdag = Digraph.remove_edges g (Backedge.minimal_set g) in
  let order =
    match Digraph.topo_sort gdag with
    | Some o -> o
    | None -> assert false (* removing a backedge set always yields a DAG *)
  in
  let pos = Array.make (Digraph.n_vertices g) 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let parents = Array.make (Digraph.n_vertices g) (-1) in
  List.iter
    (fun component ->
      let sorted = List.sort (fun a b -> compare pos.(a) pos.(b)) component in
      let rec link = function
        | a :: (b :: _ as rest) ->
            parents.(b) <- a;
            link rest
        | [ _ ] | [] -> ()
      in
      link sorted)
    (Digraph.weak_components g);
  Tree.of_parents parents

let create_general (c : Cluster.t) =
  make_with_tree c ~retree:(fun () -> general_tree c) (general_tree c)

(* Epoch switch (cluster drained, placement already swapped): rebuild the
   tree for the new copy graph and re-derive the routing map. Backedge
   targets are computed per transaction from the live placement, so nothing
   else is cached. *)
let reconfigure =
  Some
    (fun t ->
      let tr = t.retree () in
      let g = Placement.copy_graph t.c.placement in
      if not (validate_tree g tr) then
        invalid_arg
          "Backedge_proto: reconfiguration left a copy-graph edge between incomparable sites";
      t.tr <- tr;
      t.in_subtree <- Routing.subtree_replicas t.c.placement tr)

(* --- primary transactions -------------------------------------------------- *)

let abort_primary t ~site ~attempt ~gid ~targets reason =
  let c = t.c in
  Metrics.txn_abort c.metrics ~gid ~site reason;
  Exec.abort_local c ~attempt ~site;
  Hashtbl.remove t.pending_by_gid gid;
  Hashtbl.remove t.pending_by_attempt.(site) attempt;
  List.iter
    (fun target ->
      Cluster.inc_outstanding c;
      Network.send t.direct_net ~src:site ~dst:target
        (Decide { gid; commit = false; origin_commit = 0.0 }))
    targets;
  Txn.Aborted reason

let commit_primary t ~site ~attempt ~gid ~writes ~targets =
  let c = t.c in
  (* Atomic commit section: apply, release, decide, lazy-forward. *)
  Exec.commit_local c ~gid ~attempt ~site writes;
  Metrics.destined c.metrics c.placement ~items:writes;
  Hashtbl.remove t.pending_by_gid gid;
  Hashtbl.remove t.pending_by_attempt.(site) attempt;
  let now = Sim.now c.sim in
  List.iter
    (fun target ->
      Cluster.inc_outstanding c;
      Network.send t.direct_net ~src:site ~dst:target
        (Decide { gid; commit = true; origin_commit = now }))
    targets;
  let sent = if writes = [] then 0 else forward_normal t site (gid, writes, now) in
  let n_msgs = sent + List.length targets in
  if n_msgs > 0 then Cluster.use_cpu c site (float_of_int n_msgs *. c.params.cpu_msg);
  Txn.Committed

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let deadline_at = Cluster.deadline_at c in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason ->
      Exec.abort_local c ~attempt ~site;
      Metrics.txn_abort c.metrics ~gid ~site reason;
      Txn.Aborted reason
  | Ok () -> (
      let writes = List.sort_uniq compare (Txn.writes spec) in
      match backedge_targets t site writes with
      | [] -> commit_primary t ~site ~attempt ~gid ~writes ~targets:[]
      | _ :: _ as targets
        when List.exists (fun dst -> not (Network.reachable t.direct_net ~src:site ~dst)) targets
        ->
          (* Graceful degradation: a backedge target is on the other side of a
             partition; the eager phase cannot complete until heal, so fail
             fast instead of burning the full origin wait. Nothing has been
             staged remotely, so no Decide is owed. *)
          Exec.abort_local c ~attempt ~site;
          Metrics.txn_abort c.metrics ~gid ~site Txn.Partitioned;
          Txn.Aborted Txn.Partitioned
      | farthest :: _ as targets ->
          let p = { p_gid = gid; p_state = `Waiting; p_cv = Condvar.create () } in
          Hashtbl.replace t.pending_by_gid gid p;
          Hashtbl.replace t.pending_by_attempt.(site) attempt p;
          Cluster.inc_outstanding c;
          Network.send t.direct_net ~src:site ~dst:farthest (Exec_request { gid; origin = site; writes });
          Cluster.use_cpu c site c.params.cpu_msg;
          (* The whole origin wait for the special subtransaction is the
             BackEdge propagation phase, however it ends. *)
          let wait_start = Sim.now c.sim in
          let prop_done () =
            Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait
              (Sim.now c.sim -. wait_start)
          in
          let rec wait () =
            match p.p_state with
            | `Special_arrived ->
                prop_done ();
                commit_primary t ~site ~attempt ~gid ~writes ~targets
            | `Failed reason ->
                prop_done ();
                abort_primary t ~site ~attempt ~gid ~targets reason
            | `Waiting ->
                (* Wait the derived origin wait per round, clamped to the
                   transaction deadline; the tighter bound names the abort. *)
                let remaining = deadline_at -. Sim.now c.sim in
                let timeout, on_expire =
                  if remaining <= t.ow then (remaining, Txn.Deadline_exceeded)
                  else (t.ow, Txn.Propagation_timeout)
                in
                if timeout <= 0.0 then begin
                  p.p_state <- `Failed Txn.Deadline_exceeded;
                  Metrics.deadline c.metrics ~gid ~site;
                  prop_done ();
                  abort_primary t ~site ~attempt ~gid ~targets Txn.Deadline_exceeded
                end
                else begin
                  let woken = Condvar.await_timeout c.sim p.p_cv timeout in
                  match p.p_state with
                  | `Waiting when not woken ->
                      p.p_state <- `Failed on_expire;
                      if on_expire = Txn.Deadline_exceeded then
                        Metrics.deadline c.metrics ~gid ~site;
                      prop_done ();
                      abort_primary t ~site ~attempt ~gid ~targets on_expire
                  | _ -> wait ()
                end
          in
          wait ())
