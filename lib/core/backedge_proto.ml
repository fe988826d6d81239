module Sim = Repdb_sim.Sim
module Condvar = Repdb_sim.Condvar
module Lock_mgr = Repdb_lock.Lock_mgr
module Digraph = Repdb_graph.Digraph
module Tree = Repdb_graph.Tree
module Backedge = Repdb_graph.Backedge
module Network = Repdb_net.Network
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

(* The special secondary subtransaction of [gid]'s eager phase; it rides the
   tree channel's FIFO links behind the updates sent before it. The
   channel's epoch fence drops a stale one; its origin's wait then times
   out. *)
type special = { gid : int; origin : int; writes : int list }

type direct_msg =
  | Exec_request of special
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
  retree : unit -> Tree.t; (* rebuild the tree for the current placement *)
  ch : special Tree_channel.t;
  direct_net : direct_msg Network.t;
  pending_by_attempt : (int, pending) Hashtbl.t array; (* per site *)
  pending_by_gid : (int, pending) Hashtbl.t;
  participants : (int, participant) Hashtbl.t array; (* per site, by gid *)
  participants_by_attempt : (int, participant) Hashtbl.t array;
  aborted_gids : (int, unit) Hashtbl.t array;
  ow : float; (* origin wait per round, ms; derived from params *)
  retry_cap : int; (* participant lock-wait rounds before Exec_failed *)
}

let tree t = Tree_channel.tree t.ch

let backedges t =
  List.filter
    (fun (u, v) -> Tree.is_ancestor (tree t) v u)
    (Digraph.edges (Placement.copy_graph t.c.placement))

(* --- placement / routing helpers ---------------------------------------- *)

(* Replica sites that are strict tree ancestors of [site], sorted by depth:
   the eager targets of a transaction writing [writes]; the head is the
   farthest from [site] (closest to the root). Ancestors on one tree path
   have distinct depths, so the stable sort leaves no tie to the set's
   ascending site order. *)
let backedge_targets t site writes =
  let tr = tree t in
  let targets =
    List.fold_left
      (fun acc item ->
        Array.fold_left
          (fun acc s ->
            if s <> site && Tree.is_ancestor tr s site then Exec.add_site s acc else acc)
          acc t.c.placement.replicas.(item))
      [] writes
  in
  List.stable_sort (fun a b -> compare (Tree.depth tr a) (Tree.depth tr b)) targets

(* The unique child of [site] on the tree path towards [origin]. *)
let next_hop t site origin =
  match Tree.path_down (tree t) site origin with
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
          Metrics.emit c.metrics (Repdb_obs.Event.Backedge_stage { gid; site });
          Some bp
      | Ok () | Error _ ->
          (* A lock failed, or a Decide abort cancelled the participant while
             it waited for the last lock. *)
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

(* The special chases the updates committed before it down the same FIFO
   chain, so it can never overtake them. *)
let forward_special t ~src sp = Tree_channel.send_extra t.ch ~src ~dst:(next_hop t src sp.origin) sp

(* A special arriving at [site] over the tree channel. *)
let on_special t site sp =
  if site = sp.origin then
    (* All earlier secondaries have committed here: wake the primary. *)
    match Hashtbl.find_opt t.pending_by_gid sp.gid with
    | Some p when p.p_state = `Waiting ->
        p.p_state <- `Special_arrived;
        Condvar.broadcast p.p_cv
    | _ -> ()
  else
    let items = Placement.local_replicas t.c.placement site sp.writes in
    let proceed =
      if items = [] then not (Hashtbl.mem t.aborted_gids.(site) sp.gid)
      else Option.is_some (run_participant t ~gid:sp.gid ~origin:sp.origin ~site items)
    in
    if proceed then forward_special t ~src:site sp

(* --- direct message handling ------------------------------------------- *)

let handle_direct t site msg =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  match msg with
  | Exec_request sp ->
      let items = Placement.local_replicas c.placement site sp.writes in
      if Option.is_some (run_participant t ~gid:sp.gid ~origin:sp.origin ~site items) then
        forward_special t ~src:site sp;
      Cluster.dec_outstanding c
  | Decide { gid; commit; origin_commit } ->
      (match Hashtbl.find_opt t.participants.(site) gid with
      | Some bp -> begin
          match bp.bp_state with
          | `Staged ->
              Metrics.emit c.metrics (Repdb_obs.Event.Backedge_decide { gid; site; commit });
              Exec.finish_staged c ~gid ~attempt:bp.bp_attempt ~site ~commit ~origin_commit
                bp.bp_items;
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
  let ch =
    Tree_channel.create c ~describe:(fun sp -> ("special", 32 + (8 * List.length sp.writes))) tr
  in
  let t =
    {
      c;
      retree;
      ch;
      direct_net =
        Cluster.make_net c ~describe:(function
          | Exec_request sp -> ("exec-request", 32 + (8 * List.length sp.writes))
          | Decide _ -> ("decide", 24)
          | Exec_failed _ -> ("exec-failed", 16));
      pending_by_attempt = Array.init m (fun _ -> Hashtbl.create 8);
      pending_by_gid = Hashtbl.create 32;
      participants = Array.init m (fun _ -> Hashtbl.create 8);
      participants_by_attempt = Array.init m (fun _ -> Hashtbl.create 8);
      aborted_gids = Array.init m (fun _ -> Hashtbl.create 32);
      ow = origin_wait c.params;
      retry_cap = participant_retry_cap c.params;
    }
  in
  (* A timed-out lock wait of an update is the paper's deadlock signal:
     victimise the blockers after every failed round. Each direct request
     runs in its own process: Exec_request can block on locks and must not
     hold up Decide / Exec_failed traffic behind it. *)
  for site = 0 to m - 1 do
    Tree_channel.spawn_applier ~on_retry:(victimise t) t.ch ~on_extra:(on_special t) site;
    Network.serve t.direct_net site (fun ~src:_ msg ->
        Sim.spawn c.sim (fun () -> handle_direct t site msg))
  done;
  t

(* Callers that hand-build a tree keep it across epoch switches (it is
   re-validated against the new copy graph at each switch). *)
let create_with_tree (c : Cluster.t) tr = make_with_tree c ~retree:(fun () -> tr) tr

(* The paper's evaluated variant: the chain over the total site order. The
   chain makes every pair of sites tree-comparable, so it survives any
   reconfiguration unchanged. *)
let create (c : Cluster.t) =
  create_with_tree c (Tree.chain_of_order (Array.init c.params.n_sites Fun.id))

let create_with_order (c : Cluster.t) order =
  let m = c.params.n_sites in
  if Array.length order <> m then invalid_arg "Backedge_proto: order has the wrong length";
  let seen = Array.make m false in
  Array.iter
    (fun s ->
      if s < 0 || s >= m || seen.(s) then invalid_arg "Backedge_proto: order is not a permutation";
      seen.(s) <- true)
    order;
  create_with_tree c (Tree.chain_of_order order)

(* The general variant: delete a minimal DFS backedge set, then chain every
   weakly-connected component of the *full* copy graph in a topological order
   of the residual DAG (so unrelated components never exchange messages). *)
let general_tree (c : Cluster.t) =
  let g = Placement.copy_graph c.placement in
  let gdag = Digraph.remove_edges g (Backedge.minimal_set g) in
  match Digraph.topo_sort gdag with
  | Some order -> Tree.chain_components g ~order
  | None -> assert false (* removing a backedge set always yields a DAG *)

let create_general (c : Cluster.t) =
  make_with_tree c ~retree:(fun () -> general_tree c) (general_tree c)

(* Epoch switch (cluster drained, placement already swapped): rebuild the
   tree for the new copy graph. Backedge targets are computed per
   transaction from the live placement, so nothing else is cached. *)
let reconfigure =
  Some
    (fun t ->
      let tr = t.retree () in
      let g = Placement.copy_graph t.c.placement in
      if not (validate_tree g tr) then
        invalid_arg
          "Backedge_proto: reconfiguration left a copy-graph edge between incomparable sites";
      Tree_channel.retree t.ch tr)

(* --- primary transactions -------------------------------------------------- *)

(* Withdraw the pending entry and tell every staged target the outcome. *)
let decide_targets t ({ gid; attempt; site; _ } : Exec.primary) ~targets ~commit ~origin_commit =
  Hashtbl.remove t.pending_by_gid gid;
  Hashtbl.remove t.pending_by_attempt.(site) attempt;
  Exec.notify t.c t.direct_net ~src:site targets (Decide { gid; commit; origin_commit })

let abort_primary t a ~targets reason =
  Exec.abort_primary t.c a reason ~cleanup:(fun () ->
      decide_targets t a ~targets ~commit:false ~origin_commit:0.0)

let commit_primary t ({ gid; site; _ } as a : Exec.primary) ~writes ~targets =
  let c = t.c in
  (* Atomic commit section: apply, release, decide, lazy-forward. *)
  Exec.commit_local c a writes;
  Metrics.destined c.metrics c.placement ~items:writes;
  decide_targets t a ~targets ~commit:true ~origin_commit:(Sim.now c.sim);
  let sent = Tree_channel.forward t.ch ~site ~gid writes in
  let n_msgs = sent + List.length targets in
  if n_msgs > 0 then Cluster.use_cpu c site (float_of_int n_msgs *. c.params.cpu_msg);
  Txn.Committed

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason -> Exec.abort_primary c a reason
  | Ok () -> (
      let writes = Txn.writes spec in
      match backedge_targets t site writes with
      | [] -> commit_primary t a ~writes ~targets:[]
      | _ :: _ as targets
        when List.exists (fun dst -> not (Network.reachable t.direct_net ~src:site ~dst)) targets
        ->
          (* Graceful degradation: a backedge target is on the other side of a
             partition; the eager phase cannot complete until heal, so fail
             fast instead of burning the full origin wait. Nothing has been
             staged remotely, so no Decide is owed. *)
          Exec.abort_primary c a Txn.Partitioned
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
                commit_primary t a ~writes ~targets
            | `Failed reason ->
                prop_done ();
                abort_primary t a ~targets reason
            | `Waiting ->
                (* Wait the derived origin wait per round, clamped to the
                   transaction deadline; the tighter bound names the abort. *)
                let remaining = a.deadline_at -. Sim.now c.sim in
                let timeout, on_expire =
                  if remaining <= t.ow then (remaining, Txn.Deadline_exceeded)
                  else (t.ow, Txn.Propagation_timeout)
                in
                if timeout <= 0.0 then begin
                  p.p_state <- `Failed Txn.Deadline_exceeded;
                  prop_done ();
                  abort_primary t a ~targets Txn.Deadline_exceeded
                end
                else begin
                  let woken = Condvar.await_timeout c.sim p.p_cv timeout in
                  match p.p_state with
                  | `Waiting when not woken ->
                      p.p_state <- `Failed on_expire;
                      prop_done ();
                      abort_primary t a ~targets on_expire
                  | _ -> wait ()
                end
          in
          wait ())
