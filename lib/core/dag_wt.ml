module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Tree = Repdb_graph.Tree
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn

let name = "dag-wt"
let updates_replicas = true

type msg = { gid : int; writes : int list; origin_commit : float; epoch : int }

type t = {
  c : Cluster.t;
  mutable tr : Tree.t;
  net : msg list Network.t; (* one physical message = one coalesced run *)
  bat : msg Batcher.t;
  mutable in_subtree : Routing.subtree_map;
      (* site -> item bitset -> some replica lives in subtree(site) *)
}

let tree t = t.tr

(* Children whose subtree holds a replica of some written item. *)
let relevant_children t site writes =
  Routing.relevant_children t.in_subtree t.tr site writes

(* Forward a subtransaction to the relevant children; non-blocking, so it can
   sit inside an atomic commit section. Returns the number of sends. The
   outstanding token is taken per update at push time, so updates parked in
   the batcher hold the quiescence/drain machinery open until they flush. *)
let forward t site (msg : msg) =
  let children = relevant_children t site msg.writes in
  List.iter
    (fun child ->
      Cluster.inc_outstanding t.c;
      Batcher.push t.bat ~src:site ~dst:child msg)
    children;
  List.length children


(* One secondary subtransaction, received from the tree parent. *)
let process_secondary t site (msg : msg) =
  let c = t.c in
  (* Epoch fence: the operator coordinator drains all in-flight propagation
     before it switches routing, so a later epoch cannot surface here — but a
     healer failover drains weakly, and a message parked behind the outage
     can deliver after the switch. Such messages are dropped with accounting;
     anti-entropy repairs whatever they carried. *)
  if Epoch.stale c ~site ~epoch:msg.epoch then Cluster.dec_outstanding c
  else begin
  Cluster.use_cpu c site c.params.cpu_msg;
  let items = Routing.local_replicas c.placement site msg.writes in
  Exec.apply_secondary c ~gid:msg.gid ~site ~origin_commit:msg.origin_commit items;
  let sent = forward t site msg in
  Cluster.dec_outstanding c;
  if sent > 0 then Cluster.use_cpu c site (float_of_int sent *. c.params.cpu_msg)
  end

let applier t site =
  let inbox = Network.inbox t.net site in
  let rec loop () =
    let _, batch = Mailbox.recv inbox in
    (* Dequeue order = receive order (the FIFO the protocol's correctness
       rests on), and a batch preserves its pushes' order; the trace records
       it so tests can assert commit order. *)
    List.iter
      (fun (msg : msg) ->
        Metrics.secondary_recv t.c.metrics ~gid:msg.gid ~site;
        Metrics.queue_depth t.c.metrics ~site ~queue:"fifo" ~depth:(Mailbox.length inbox);
        process_secondary t site msg)
      batch;
    loop ()
  in
  loop ()

let describe_msg (msg : msg) = ("secondary", 24 + (8 * List.length msg.writes))

(* The copy graph of [pl]; DAG(WT) refuses a cyclic one. *)
let dag_of pl ~why =
  let g = Placement.copy_graph pl in
  if not (Repdb_graph.Digraph.is_dag g) then invalid_arg ("Dag_wt: " ^ why);
  g

let cyclic = "copy graph has a cycle (use the BackEdge protocol)"

(* Besides the initial graph, replay the operator plan so that a step making
   the graph cyclic is refused before any event runs, not at its switch.
   Failover placements stay acyclic by construction ([Heal_exec.promote]). *)
let check_tree (c : Cluster.t) tr =
  let g = dag_of c.placement ~why:cyclic in
  ignore
    (List.fold_left
       (fun pl (ts : Repdb_reconfig.Reconfig.timed) ->
         let pl = Placement.apply_step pl ts.step in
         let step = Repdb_reconfig.Reconfig.to_string { steps = [ ts ] } in
         ignore (dag_of pl ~why:("reconfiguration step " ^ step ^ " makes the copy graph cyclic"));
         pl)
       c.placement c.params.reconfig.steps);
  if not (Tree.satisfies g tr) then invalid_arg "Dag_wt: tree lacks the ancestor property"

let create_with_tree (c : Cluster.t) tr =
  check_tree c tr;
  let net = Cluster.make_batch_net ~describe_one:describe_msg c in
  let bat = Cluster.make_batcher c net in
  let t = { c; tr; net; bat; in_subtree = Routing.subtree_replicas c.placement tr } in
  (* A reconfiguration — operator-planned or a healer failover — can give any
     site a tree parent later, so under either every site gets an applier
     (idle at roots); without one, spawn exactly as before — spawn counts
     feed the event tie-break order, and static runs must stay
     byte-identical. *)
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    if Epoch.planned c || Tree.parent tr site <> -1 then
      Sim.spawn ~cat c.sim (fun () -> applier t site)
  done;
  t

let create (c : Cluster.t) = create_with_tree c (Tree.of_dag (dag_of c.placement ~why:cyclic))

(* Epoch switch (cluster drained, placement already swapped): rebuild the
   tree and the subtree-replica routing map for the new copy graph. *)
let reconfigure =
  Some
    (fun t ->
      let g = dag_of t.c.placement ~why:"reconfiguration made the copy graph cyclic" in
      let tr = Tree.of_dag g in
      t.tr <- tr;
      t.in_subtree <- Routing.subtree_replicas t.c.placement tr)

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason ->
      Exec.abort_local c ~attempt ~site;
      Metrics.txn_abort c.metrics ~gid ~site reason;
      Txn.Aborted reason
  | Ok () ->
      let writes = List.sort_uniq compare (Txn.writes spec) in
      (* Atomic commit section: apply, release, forward. *)
      Exec.commit_local c ~gid ~attempt ~site writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      let msg = { gid; writes; origin_commit = Sim.now c.sim; epoch = Epoch.current c } in
      let sent = if writes = [] then 0 else forward t site msg in
      if sent > 0 then Cluster.use_cpu c site (float_of_int sent *. c.params.cpu_msg);
      Txn.Committed
