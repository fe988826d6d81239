module Sim = Repdb_sim.Sim
module Condvar = Repdb_sim.Condvar
module Digraph = Repdb_graph.Digraph
module Network = Repdb_net.Network
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn

let name = "dag-t"
let updates_replicas = true

type msg = {
  ts : Timestamp.t;
  gid : int;
  writes : int list; (* [] for dummies *)
  dummy : bool;
  origin_commit : float;
}

type site_state = {
  mutable lts : int;
  mutable ts : Timestamp.t;
  queues : (msg Queue.t * string) array;
      (* per site id: the copy-graph parent's queue with its trace label;
         [no_parent] for a site that is not a parent *)
  arrivals : Condvar.t;
  last_sent : float array; (* per child site id *)
  (* Pipelined-applier bookkeeping (the Section 3.2.3 relaxation): *)
  mutable tickets : int; (* secondaries dispatched, in timestamp order *)
  mutable commits_done : int; (* secondaries committed *)
  item_queues : (int, int Queue.t) Hashtbl.t; (* item -> pending tickets *)
  turn : Condvar.t;
}

type t = {
  c : Cluster.t;
  rank : int array;
  children : int list array; (* copy-graph successors, per site *)
  net : msg Network.t;
  states : site_state array;
  pipelined : bool;
}

let site_timestamp t site = t.states.(site).ts

(* Stands for "no queue"; never filled. *)
let no_queue : msg Queue.t = Queue.create ()
let no_parent = (no_queue, "")

let head (q : msg Queue.t) = Queue.peek q

let rec scan_heads queues i best =
  if i = Array.length queues then best
  else
    let q, _ = queues.(i) in
    if q == no_queue then scan_heads queues (i + 1) best
    else if Queue.is_empty q then no_queue
    else if best == no_queue || Timestamp.compare (head best).ts (head q).ts > 0 then
      scan_heads queues (i + 1) q
    else scan_heads queues (i + 1) best

(* The parent queue whose head has the minimum timestamp, the lowest parent
   id on a tie; [no_queue] unless every queue is non-empty (Section
   3.2.3). *)
let min_head (st : site_state) = scan_heads st.queues 0 no_queue

(* Commit a secondary (or dummy) at [site]: the site timestamp becomes
   TS(Ti) . (site, LTS), with Ti's epoch (Sections 3.2.3 and 3.3). *)
let advance_site_ts t site (msg : msg) =
  let st = t.states.(site) in
  st.ts <- Timestamp.concat msg.ts ~site:t.rank.(site) ~lts:st.lts

let process t site (msg : msg) =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  if msg.dummy then advance_site_ts t site msg
  else begin
    Metrics.secondary_recv c.metrics ~gid:msg.gid ~site;
    let items = Placement.local_replicas c.placement site msg.writes in
    Exec.apply_secondary c ~gid:msg.gid ~site ~origin_commit:msg.origin_commit items;
    advance_site_ts t site msg;
    Cluster.dec_outstanding c
  end

let applier t site =
  let st = t.states.(site) in
  let rec loop () =
    let q = min_head st in
    if q == no_queue then Condvar.await st.arrivals else process t site (Queue.pop q);
    loop ()
  in
  loop ()

(* The Section 3.2.3 relaxation: several secondaries execute concurrently.
   Dispatch (and hence commit tickets) still follows timestamp order; a
   worker may only start locking once it is the oldest pending secondary on
   every item it writes (which rules out lock inversions between
   secondaries), and commits are serialised by ticket so the site timestamp
   evolves exactly as in the serial applier. *)
let pipelined_worker t site (msg : msg) ~ticket ~items =
  let c = t.c in
  let st = t.states.(site) in
  Cluster.use_cpu c site c.params.cpu_msg;
  let my_turn_on_items () =
    List.for_all
      (fun item ->
        match Hashtbl.find_opt st.item_queues item with
        | Some q -> Queue.peek_opt q = Some ticket
        | None -> false)
      items
  in
  while not (my_turn_on_items ()) do
    Condvar.await st.turn
  done;
  let attempt =
    if items = [] then -1
    else begin
      let attempt = Exec.lock_secondary c ~gid:msg.gid ~site items in
      Exec.commit_cost c ~site;
      attempt
    end
  in
  (* Commit strictly in dispatch (= timestamp) order. *)
  while st.commits_done <> ticket do
    Condvar.await st.turn
  done;
  if items <> [] then
    Exec.commit_secondary c ~gid:msg.gid ~attempt ~site ~origin_commit:msg.origin_commit items;
  advance_site_ts t site msg;
  List.iter
    (fun item ->
      let q = Hashtbl.find st.item_queues item in
      ignore (Queue.pop q);
      if Queue.is_empty q then Hashtbl.remove st.item_queues item)
    items;
  st.commits_done <- st.commits_done + 1;
  if not msg.dummy then Cluster.dec_outstanding c;
  Condvar.broadcast st.turn

let pipelined_applier t site =
  let c = t.c in
  let st = t.states.(site) in
  let rec loop () =
    let q = min_head st in
    if q == no_queue then Condvar.await st.arrivals
    else begin
      let msg = Queue.pop q in
      if not msg.dummy then Metrics.secondary_recv c.metrics ~gid:msg.gid ~site;
      let ticket = st.tickets in
      st.tickets <- st.tickets + 1;
      let items =
        if msg.dummy then []
        else Placement.local_replicas c.placement site msg.writes
      in
      (* Register per-item FIFO position synchronously, before yielding. *)
      List.iter
        (fun item ->
          let iq =
            match Hashtbl.find_opt st.item_queues item with
            | Some iq -> iq
            | None ->
                let iq = Queue.create () in
                Hashtbl.replace st.item_queues item iq;
                iq
          in
          Queue.add ticket iq)
        items;
      Sim.spawn c.sim (fun () -> pipelined_worker t site msg ~ticket ~items)
    end;
    loop ()
  in
  loop ()

let send t ~src ~dst msg =
  if not msg.dummy then Cluster.inc_outstanding t.c;
  t.states.(src).last_sent.(dst) <- Sim.now t.c.sim;
  Network.send t.net ~src ~dst msg

(* A site that stayed silent towards a child pushes the child's clock with a
   dummy carrying the current site timestamp. *)
let dummy_timer t site children =
  let c = t.c in
  let st = t.states.(site) in
  Cluster.every c c.params.dummy_idle (fun () ->
      List.iter
        (fun child ->
          if Sim.now c.sim -. st.last_sent.(child) >= c.params.dummy_idle then begin
            Metrics.emit c.metrics (Repdb_obs.Event.Dummy_emit { src = site; dst = child });
            send t ~src:site ~dst:child
              { ts = st.ts; gid = 0; writes = []; dummy = true; origin_commit = Sim.now c.sim }
          end)
        children)

(* Sources advance the global epoch (Section 3.3). *)
let epoch_timer t site =
  let c = t.c in
  let st = t.states.(site) in
  Cluster.every c c.params.epoch_period (fun () ->
      st.ts <- Timestamp.with_epoch st.ts (Timestamp.epoch st.ts + 1);
      Metrics.emit c.metrics
        (Repdb_obs.Event.Epoch_advance { site; epoch = Timestamp.epoch st.ts }))

let create_internal ~pipelined (c : Cluster.t) =
  let graph = Placement.copy_graph c.placement in
  let order =
    match Digraph.topo_sort graph with
    | Some o -> o
    | None -> invalid_arg "Dag_t: copy graph has a cycle (use the BackEdge protocol)"
  in
  let m = c.params.n_sites in
  let rank = Array.make m 0 in
  List.iteri (fun i site -> rank.(site) <- i) order;
  let net =
    Cluster.make_net c ~describe:(fun (msg : msg) ->
        if msg.dummy then ("dummy", 24) else ("secondary", 32 + (8 * List.length msg.writes)))
  in
  let states =
    Array.init m (fun site ->
        let queues = Array.make m no_parent in
        List.iter
          (fun parent -> queues.(parent) <- (Queue.create (), Printf.sprintf "parent:%d" parent))
          (Digraph.pred graph site);
        {
          lts = 0;
          ts = Timestamp.initial rank.(site);
          queues;
          arrivals = Condvar.create ();
          last_sent = Array.make m 0.0;
          tickets = 0;
          commits_done = 0;
          item_queues = Hashtbl.create 16;
          turn = Condvar.create ();
        })
  in
  let children = Array.init m (Digraph.succ graph) in
  let t = { c; rank; children; net; states; pipelined } in
  for site = 0 to m - 1 do
    let st = states.(site) in
    Network.set_handler net site (fun ~src msg ->
        let q, label = st.queues.(src) in
        if q == no_queue then invalid_arg "Dag_t: message from a non-parent site";
        Queue.add msg q;
        Metrics.queue_depth c.metrics ~site ~queue:label ~depth:(Queue.length q);
        Condvar.broadcast st.arrivals);
    if Digraph.pred graph site <> [] then
      Sim.spawn c.sim (fun () -> if t.pipelined then pipelined_applier t site else applier t site);
    if children.(site) <> [] then begin
      Sim.spawn c.sim (fun () -> dummy_timer t site children.(site));
      if Digraph.pred graph site = [] then Sim.spawn c.sim (fun () -> epoch_timer t site)
    end
  done;
  t

let create c = create_internal ~pipelined:false c
let create_pipelined c = create_internal ~pipelined:true c

(* The children holding a replica of some written item, without a closure;
   [children] itself when none is filtered out. *)
let rec relevant_children placement writes = function
  | [] -> []
  | child :: rest as children ->
      let rest' = relevant_children placement writes rest in
      if not (Placement.replicates_any placement ~site:child writes) then rest'
      else if rest' == rest then children
      else child :: rest'

let rec send_each t site msg = function
  | [] -> ()
  | child :: rest ->
      send t ~src:site ~dst:child msg;
      send_each t site msg rest

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason -> Exec.abort_primary c a reason
  | Ok () ->
      let writes = Txn.writes spec in
      (* Atomic commit section (the "critical section" of Section 3.2.2):
         apply, release, bump the local counter, stamp the transaction and
         schedule the secondaries at the relevant children. *)
      Exec.commit_local c a writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      let st = t.states.(site) in
      st.lts <- st.lts + 1;
      st.ts <- Timestamp.bump_own st.ts t.rank.(site);
      let ts = st.ts in
      let relevant = relevant_children c.placement writes t.children.(site) in
      if relevant <> [] then begin
        send_each t site { ts; gid; writes; dummy = false; origin_commit = Sim.now c.sim } relevant;
        Cluster.use_cpu c site (float_of_int (List.length relevant) *. c.params.cpu_msg)
      end;
      Txn.Committed

(* Online reconfiguration is unsupported: the per-copy-graph-parent queues,
   timestamp site ranks and epoch machinery are tied to one topology for the
   lifetime of the run (the paper introduces epochs for progress, not
   membership). The driver refuses non-empty plans for DAG(T). *)
let reconfigure = None
