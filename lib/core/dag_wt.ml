module Tree = Repdb_graph.Tree
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn

let name = "dag-wt"
let updates_replicas = true

(* DAG(WT) sends nothing on the tree besides updates. *)
type nothing = |

let absurd : nothing -> 'a = function _ -> .

type t = { c : Cluster.t; ch : nothing Tree_channel.t }

let tree t = Tree_channel.tree t.ch

(* The copy graph of [pl]; DAG(WT) refuses a cyclic one. *)
let dag_of pl ~why =
  let g = Placement.copy_graph pl in
  if not (Repdb_graph.Digraph.is_dag g) then invalid_arg ("Dag_wt: " ^ why);
  g

let cyclic = "copy graph has a cycle (use the BackEdge protocol)"

(* Besides the initial graph, replay the operator plan so that a step making
   the graph cyclic is refused before any event runs, not at its switch.
   Failover placements stay acyclic by construction ([Heal_exec.promote]),
   but a plan step after a failover can still close a cycle the replay
   cannot see, so healing with a plan is refused outright. *)
let check_tree (c : Cluster.t) tr =
  if c.params.heal && not (Repdb_reconfig.Reconfig.is_empty c.params.reconfig) then
    invalid_arg
      "Dag_wt: healing with a reconfiguration plan is unsupported (a failover can make a later \
       plan step cyclic)";
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
  let ch = Tree_channel.create c ~describe:absurd tr in
  for site = 0 to c.params.n_sites - 1 do
    Tree_channel.spawn_applier ch ~on_extra:(fun _ -> absurd) site
  done;
  { c; ch }

let create (c : Cluster.t) = create_with_tree c (Tree.of_dag (dag_of c.placement ~why:cyclic))

(* Epoch switch (cluster drained, placement already swapped): rebuild the
   tree for the new copy graph. *)
let reconfigure =
  Some
    (fun t ->
      Tree_channel.retree t.ch
        (Tree.of_dag (dag_of t.c.placement ~why:"reconfiguration made the copy graph cyclic")))

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason -> Exec.abort_primary c a reason
  | Ok () ->
      let writes = Txn.writes spec in
      (* Atomic commit section: apply, release, forward. *)
      Exec.commit_local c a writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      let sent = Tree_channel.forward t.ch ~site ~gid writes in
      if sent > 0 then Cluster.use_cpu c site (float_of_int sent *. c.params.cpu_msg);
      Txn.Committed
