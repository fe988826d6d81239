module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Txn = Repdb_txn.Txn
module History = Repdb_txn.History
module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Network = Repdb_net.Network

let abort_reason_of_outcome = function
  | Lock_mgr.Timed_out -> Txn.Lock_timeout
  | Lock_mgr.Deadlock_victim -> Txn.Deadlock
  | Lock_mgr.Granted -> invalid_arg "Exec.abort_reason_of_outcome: Granted"

let run_op ?on_read (c : Cluster.t) ~gid ~attempt ~site op =
  let locks = c.locks.(site) in
  let item, mode, kind =
    match op with
    | Txn.Read item -> (item, Lock_mgr.Shared, History.R)
    | Txn.Write item -> (item, Lock_mgr.Exclusive, History.W)
  in
  match Lock_mgr.acquire locks ~owner:attempt item mode with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      (match op with
      | Txn.Read item -> (
          let v = Store.read c.stores.(site) item in
          match on_read with Some f -> f item v | None -> ())
      | Txn.Write _ -> () (* deferred to commit *));
      History.record c.history ~site ~item ~gid ~attempt kind;
      Ok ()
  | (Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim) as o -> Error (abort_reason_of_outcome o)

let run_ops ?on_read c ~gid ~attempt ~site ops =
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
        match run_op ?on_read c ~gid ~attempt ~site op with Ok () -> go rest | e -> e)
  in
  go ops

let acquire_writes c ~gid ~attempt ~site items =
  run_ops c ~gid ~attempt ~site (List.map (fun item -> Txn.Write item) items)

let apply_writes (c : Cluster.t) ~gid ~site items =
  List.iter
    (fun item ->
      Store.apply c.stores.(site) item ~writer:gid ();
      Cluster.note_apply c ~site ~item)
    items

let commit_cost ?owner (c : Cluster.t) ~site =
  match owner with
  | None -> Cluster.use_cpu c site c.params.cpu_commit
  | Some owner ->
      let t0 = Sim.now c.sim in
      Cluster.use_cpu c site c.params.cpu_commit;
      Metrics.span c.metrics ~owner Repdb_obs.Span.Commit (Sim.now c.sim -. t0)

let release (c : Cluster.t) ~attempt ~site = Lock_mgr.release_all c.locks.(site) ~owner:attempt

let commit_local c ~gid ~attempt ~site writes =
  commit_cost ~owner:attempt c ~site;
  apply_writes c ~gid ~site writes;
  Metrics.txn_commit c.metrics ~gid ~site;
  release c ~attempt ~site

let abort_local (c : Cluster.t) ~attempt ~site =
  History.discard_attempt c.history ~attempt;
  release c ~attempt ~site

(* --- the replica side of propagation -------------------------------------- *)

let rec lock_secondary ?(on_retry = ignore) c ~gid ~site items =
  let attempt = Cluster.fresh_attempt c in
  match acquire_writes c ~gid ~attempt ~site items with
  | Ok () -> attempt
  | Error _ ->
      abort_local c ~attempt ~site;
      on_retry ();
      lock_secondary ~on_retry c ~gid ~site items

let commit_secondary (c : Cluster.t) ~gid ~attempt ~site ~origin_commit items =
  apply_writes c ~gid ~site items;
  Metrics.secondary_commit c.metrics ~gid ~site;
  release c ~attempt ~site;
  Metrics.propagation c.metrics ~gid ~site ~delay:(Sim.now c.sim -. origin_commit)

let apply_secondary ?on_retry c ~gid ~site ~origin_commit items =
  if items <> [] then begin
    let attempt = lock_secondary ?on_retry c ~gid ~site items in
    commit_cost c ~site;
    commit_secondary c ~gid ~attempt ~site ~origin_commit items
  end

(* The destination set stays a [Hashtbl] iterated in bucket order: sends made
   at one simulated instant are ordered by it, and so is every later event. *)
let fan_out (c : Cluster.t) ~site items send =
  Metrics.destined c.metrics c.placement ~items;
  let dests = Hashtbl.create 4 in
  List.iter
    (fun item ->
      Array.iter (fun s -> if s <> site then Hashtbl.replace dests s ()) c.placement.replicas.(item))
    items;
  Hashtbl.iter (fun dst () -> send dst) dests;
  Hashtbl.length dests

let propagate (c : Cluster.t) ~site items send =
  let n = fan_out c ~site items send in
  if n > 0 then Cluster.use_cpu c site (float_of_int n *. c.params.cpu_msg)

type update = { gid : int; writes : int list; origin_commit : float }

let send_updates (c : Cluster.t) net ~site ~gid writes =
  let origin_commit = Sim.now c.sim in
  propagate c ~site writes (fun dst ->
      Cluster.inc_outstanding c;
      Network.send net ~src:site ~dst { gid; writes; origin_commit })

let update_applier (c : Cluster.t) net site =
  let inbox = Network.inbox net site in
  let rec loop () =
    let _, u = Mailbox.recv inbox in
    Cluster.use_cpu c site c.params.cpu_msg;
    let items = Routing.local_replicas c.placement site u.writes in
    apply_secondary c ~gid:u.gid ~site ~origin_commit:u.origin_commit items;
    Cluster.dec_outstanding c;
    loop ()
  in
  loop ()

(* --- versioned (optimistic) updates --------------------------------------- *)

type versioned_update = {
  u_gid : int;
  u_writes : (int * int) list;
  u_commit_ts : float;
  u_origin_commit : float;
  u_epoch : int;
}

type on_install = site:int -> item:int -> version:int -> commit_ts:float -> unit

(* Install certified versions at [site] under a fresh attempt id, so a
   client-side discard never takes committed writes with it. *)
let install_versions ?on_install ?only (c : Cluster.t) ~gid ~site ~commit_ts vwrites =
  let attempt = Cluster.fresh_attempt c in
  List.iter
    (fun (item, version) ->
      if match only with None -> true | Some local -> List.mem item local then begin
        Store.apply c.stores.(site) item ~writer:gid ();
        assert ((Store.read c.stores.(site) item).Value.version = version);
        (match on_install with Some f -> f ~site ~item ~version ~commit_ts | None -> ());
        Cluster.note_apply c ~site ~item;
        History.record c.history ~site ~item ~gid ~attempt ~version History.W
      end)
    vwrites

let commit_versioned ?on_install (c : Cluster.t) net ~site ~gid ~commit_ts vwrites =
  Cluster.use_cpu c site c.params.cpu_commit;
  if vwrites <> [] then install_versions ?on_install c ~gid ~site ~commit_ts vwrites;
  Metrics.txn_commit c.metrics ~gid ~site;
  if vwrites <> [] then begin
    let now = Sim.now c.sim in
    propagate c ~site (List.map fst vwrites) (fun dst ->
        Cluster.inc_outstanding c;
        Network.send net ~src:site ~dst
          {
            u_gid = gid;
            u_writes = vwrites;
            u_commit_ts = commit_ts;
            u_origin_commit = now;
            u_epoch = Epoch.current c;
          })
  end

let versioned_applier ?on_install (c : Cluster.t) net site =
  let inbox = Network.inbox net site in
  let rec loop () =
    let _, u = Mailbox.recv inbox in
    Cluster.use_cpu c site c.params.cpu_msg;
    assert (u.u_epoch = Epoch.current c);
    let local = Routing.local_replicas c.placement site (List.map fst u.u_writes) in
    if local <> [] then begin
      install_versions ?on_install ~only:local c ~gid:u.u_gid ~site ~commit_ts:u.u_commit_ts
        u.u_writes;
      Metrics.secondary_commit c.metrics ~gid:u.u_gid ~site;
      Metrics.propagation c.metrics ~gid:u.u_gid ~site ~delay:(Sim.now c.sim -. u.u_origin_commit)
    end;
    Cluster.dec_outstanding c;
    loop ()
  in
  loop ()
