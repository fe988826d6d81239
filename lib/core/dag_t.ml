module Sim = Repdb_sim.Sim
module Condvar = Repdb_sim.Condvar
module Digraph = Repdb_graph.Digraph
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
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
  queues : (int, msg Queue.t) Hashtbl.t; (* one per copy-graph parent *)
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
  graph : Digraph.t;
  rank : int array;
  net : msg list Network.t; (* one physical message = one coalesced run *)
  bat : msg Batcher.t;
  states : site_state array;
  pipelined : bool;
}

let ranks t = t.rank
let site_timestamp t site = t.states.(site).ts

(* Pick the parent queue whose head has the minimum timestamp; None unless
   every queue is non-empty (Section 3.2.3). *)
let min_head (st : site_state) : (msg Queue.t * msg) option =
  let best = ref None in
  let all = ref true in
  Hashtbl.iter
    (fun _parent q ->
      match Queue.peek_opt q with
      | None -> all := false
      | Some (msg : msg) -> (
          match !best with
          | Some (_, (m : msg)) when Timestamp.compare m.ts msg.ts <= 0 -> ()
          | _ -> best := Some (q, msg)))
    st.queues;
  if !all then !best else None

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
    let items = Routing.local_replicas c.placement site msg.writes in
    Exec.apply_secondary c ~gid:msg.gid ~site ~origin_commit:msg.origin_commit items;
    advance_site_ts t site msg;
    Cluster.dec_outstanding c
  end

let applier t site =
  let st = t.states.(site) in
  let rec loop () =
    match min_head st with
    | Some (q, msg) ->
        ignore (Queue.pop q);
        process t site msg;
        loop ()
    | None ->
        Condvar.await st.arrivals;
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
    match min_head st with
    | Some (q, msg) ->
        ignore (Queue.pop q);
        if not msg.dummy then Metrics.secondary_recv c.metrics ~gid:msg.gid ~site;
        let ticket = st.tickets in
        st.tickets <- st.tickets + 1;
        let items =
          if msg.dummy then []
          else Routing.local_replicas c.placement site msg.writes
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
        Sim.spawn c.sim (fun () -> pipelined_worker t site msg ~ticket ~items);
        loop ()
    | None ->
        Condvar.await st.arrivals;
        loop ()
  in
  loop ()

(* Secondaries coalesce; dummies are progress barriers, so they flush the
   pair and ship alone — a dummy's timestamp must not overtake (or park
   behind) the secondaries sent before it on the same channel. *)
let send t ~src ~dst msg =
  if not msg.dummy then Cluster.inc_outstanding t.c;
  t.states.(src).last_sent.(dst) <- Sim.now t.c.sim;
  if msg.dummy then Batcher.push_now t.bat ~src ~dst msg else Batcher.push t.bat ~src ~dst msg

(* A site that stayed silent towards a child pushes the child's clock with a
   dummy carrying the current site timestamp. *)
let dummy_timer t site children =
  let c = t.c in
  let st = t.states.(site) in
  let rec loop () =
    Sim.delay c.params.dummy_idle;
    if not c.stopped then begin
      List.iter
        (fun child ->
          if Sim.now c.sim -. st.last_sent.(child) >= c.params.dummy_idle then begin
            Metrics.emit c.metrics (Repdb_obs.Event.Dummy_emit { src = site; dst = child });
            send t ~src:site ~dst:child
              { ts = st.ts; gid = 0; writes = []; dummy = true; origin_commit = Sim.now c.sim }
          end)
        children;
      loop ()
    end
  in
  loop ()

(* Sources advance the global epoch (Section 3.3). *)
let epoch_timer t site =
  let c = t.c in
  let st = t.states.(site) in
  let rec loop () =
    Sim.delay c.params.epoch_period;
    if not c.stopped then begin
      st.ts <- Timestamp.with_epoch st.ts (Timestamp.epoch st.ts + 1);
      Metrics.emit c.metrics
        (Repdb_obs.Event.Epoch_advance { site; epoch = Timestamp.epoch st.ts });
      loop ()
    end
  in
  loop ()

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
    Cluster.make_batch_net c ~describe_one:(fun (msg : msg) ->
        if msg.dummy then ("dummy", 24) else ("secondary", 32 + (8 * List.length msg.writes)))
  in
  let bat = Cluster.make_batcher c net in
  let states =
    Array.init m (fun site ->
        let queues = Hashtbl.create 4 in
        List.iter (fun parent -> Hashtbl.replace queues parent (Queue.create ())) (Digraph.pred graph site);
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
  let t = { c; graph; rank; net; bat; states; pipelined } in
  for site = 0 to m - 1 do
    let st = states.(site) in
    Network.set_handler net site (fun ~src batch ->
        List.iter
          (fun msg ->
            match Hashtbl.find_opt st.queues src with
            | Some q ->
                Queue.add msg q;
                Metrics.queue_depth c.metrics ~site
                  ~queue:(Printf.sprintf "parent:%d" src)
                  ~depth:(Queue.length q);
                Condvar.broadcast st.arrivals
            | None -> invalid_arg "Dag_t: message from a non-parent site")
          batch);
    let cat = Cluster.profile_cat c "server" in
    if Digraph.pred graph site <> [] then
      Sim.spawn ~cat c.sim (fun () -> if t.pipelined then pipelined_applier t site else applier t site);
    let children = Digraph.succ graph site in
    if children <> [] then begin
      Sim.spawn ~cat c.sim (fun () -> dummy_timer t site children);
      if Digraph.pred graph site = [] then Sim.spawn ~cat c.sim (fun () -> epoch_timer t site)
    end
  done;
  t

let create c = create_internal ~pipelined:false c
let create_pipelined c = create_internal ~pipelined:true c

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
      (* Atomic commit section (the "critical section" of Section 3.2.2):
         apply, release, bump the local counter, stamp the transaction and
         schedule the secondaries at the relevant children. *)
      Exec.commit_local c ~gid ~attempt ~site writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      let st = t.states.(site) in
      st.lts <- st.lts + 1;
      st.ts <- Timestamp.bump_own st.ts t.rank.(site);
      let ts = st.ts in
      let relevant =
        List.filter
          (fun child ->
            List.exists (fun item -> Placement.has_replica c.placement ~site:child item) writes)
          (Digraph.succ t.graph site)
      in
      let now = Sim.now c.sim in
      List.iter
        (fun child ->
          send t ~src:site ~dst:child { ts; gid; writes; dummy = false; origin_commit = now })
        relevant;
      if relevant <> [] then
        Cluster.use_cpu c site (float_of_int (List.length relevant) *. c.params.cpu_msg);
      Txn.Committed

(* Online reconfiguration is unsupported: the per-copy-graph-parent queues,
   timestamp site ranks and epoch machinery are tied to one topology for the
   lifetime of the run (the paper introduces epochs for progress, not
   membership). The driver refuses non-empty plans for DAG(T). *)
let reconfigure = None
