module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn

let name = "lazy-master"
let updates_replicas = true

(* Updates shipped to a replica site; acknowledged by a [Reply] once
   applied. *)
type push = { gid : int; writes : int list; origin_commit : float; reply : Exec.answer Sim.once }

type t = { c : Cluster.t; net : push Exec.remote Network.t }

let create (c : Cluster.t) =
  let t = { c; net = Cluster.make_net c } in
  (* A granted shared lock at the primary only records the read: the value
     is then read from the local replica at the requester, fresh because
     writers hold their locks until every replica acknowledged. *)
  Exec.serve_remote c t.net Lock_mgr.Shared
    ~on_grant:(fun ~site ~item (txn : Exec.primary) ->
      History.record c.history ~site ~item ~gid:txn.gid ~attempt:txn.attempt History.R)
    ~own:(fun ~site ~src p ->
      (* Apply a pushed update set at a replica site (short local X locks,
         retried against concurrent pushes), then acknowledge. *)
      Sim.spawn c.sim (fun () ->
          Cluster.use_cpu c site c.params.cpu_msg;
          let items = Placement.local_replicas c.placement site p.writes in
          Exec.apply_secondary c ~gid:p.gid ~site ~origin_commit:p.origin_commit items;
          Network.send t.net ~src:site ~dst:src (Reply { answer = Granted; reply = p.reply })));
  t

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  let remote_sites = ref [] in
  let rec run = function
    | [] -> Ok ()
    | Txn.Read item :: rest when c.placement.primary.(item) <> site -> (
        let primary = c.placement.primary.(item) in
        remote_sites := Exec.add_site primary !remote_sites;
        Cluster.use_cpu c site c.params.cpu_msg;
        match Exec.lock_remote c t.net a ~dst:primary ~deadline:infinity item with
        | Granted ->
            (* Read the local replica under the primary's lock. *)
            Cluster.use_cpu c site c.params.cpu_op;
            ignore (Store.read c.stores.(site) item);
            run rest
        | Denied | Expired -> Error Txn.Remote_denied)
    | op :: rest -> ( match Exec.run_op c ~gid ~attempt ~site op with Ok () -> run rest | e -> e)
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_primary c a reason ~cleanup:(fun () -> Exec.release_remote c t.net a !remote_sites)
  | Ok () ->
      let writes = Txn.writes spec in
      Exec.commit_cost ~owner:attempt c ~site;
      Exec.apply_writes c ~gid ~site writes;
      (* Push the updates one replica site at a time (each push charges its
         own message) and hold every lock until all replicas ack. *)
      let origin_commit = Sim.now c.sim in
      ignore
        (Exec.fan_out c ~site writes (fun dst ->
             Cluster.use_cpu c site c.params.cpu_msg;
             let reply = Sim.once () in
             ignore
               (Exec.request c t.net ~src:site ~dst ~deadline:infinity ~expired:Exec.Expired reply
                  (Own { gid; writes; origin_commit; reply }))));
      Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait
        (Sim.now c.sim -. origin_commit);
      Metrics.txn_commit c.metrics ~gid ~site;
      Exec.release c ~attempt ~site;
      Exec.release_remote c t.net a !remote_sites;
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
