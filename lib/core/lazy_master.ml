module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn

let name = "lazy-master"
let updates_replicas = true

type msg =
  | Read_request of { item : int; txn : Exec.primary; reply : bool -> unit }
  | Read_reply of { granted : bool; deliver : bool -> unit }
  | Push of { gid : int; writes : int list; origin_commit : float; reply : unit -> unit }
      (** Updates shipped to a replica site; acknowledged once applied. *)
  | Push_ack of { deliver : unit -> unit }
  | Release of { owner : int }

type t = { c : Cluster.t; net : msg Network.t; mutable remote : int }

let remote_reads t = t.remote

(* Serve a shared-lock request at the primary (the value is then read from
   the local replica at the requester — fresh, because writers hold their
   locks until every replica acknowledged). *)
let serve_read t site ~src ~item ~(txn : Exec.primary) ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Network.send t.net ~src:site ~dst:src (Read_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner:txn.attempt item Lock_mgr.Shared with
  | Lock_mgr.Granted ->
      History.record c.history ~site ~item ~gid:txn.gid ~attempt:txn.attempt History.R;
      respond true
  | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> respond false

(* Apply a pushed update set at a replica site (short local X locks, retried
   against concurrent pushes), then acknowledge. *)
let serve_push t site ~src ~gid ~writes ~origin_commit ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let items = Placement.local_replicas c.placement site writes in
  Exec.apply_secondary c ~gid ~site ~origin_commit items;
  Network.send t.net ~src:site ~dst:src (Push_ack { deliver = reply })

let handle t site ~src = function
  | Read_request { item; txn; reply } ->
      Sim.spawn t.c.sim (fun () -> serve_read t site ~src ~item ~txn ~reply)
  | Read_reply { granted; deliver } ->
      Cluster.dec_outstanding t.c;
      deliver granted
  | Push { gid; writes; origin_commit; reply } ->
      Sim.spawn t.c.sim (fun () -> serve_push t site ~src ~gid ~writes ~origin_commit ~reply)
  | Push_ack { deliver } ->
      Cluster.dec_outstanding t.c;
      deliver ()
  | Release { owner } ->
      Sim.spawn t.c.sim (fun () ->
          Cluster.use_cpu t.c site t.c.params.cpu_msg;
          Lock_mgr.release_all t.c.locks.(site) ~owner;
          Cluster.dec_outstanding t.c)

let create (c : Cluster.t) =
  let t = { c; net = Cluster.make_net c; remote = 0 } in
  for site = 0 to c.params.n_sites - 1 do
    Network.serve t.net site (handle t site)
  done;
  t

(* Release the attempt's shared locks at every primary it read from, in
   ascending site order. *)
let release_remote t (a : Exec.primary) remote_sites =
  List.iter
    (fun primary ->
      Cluster.inc_outstanding t.c;
      Network.send t.net ~src:a.site ~dst:primary (Release { owner = a.attempt }))
    remote_sites

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  let remote_sites = ref [] in
  let rec run = function
    | [] -> Ok ()
    | Txn.Read item :: rest when c.placement.primary.(item) <> site ->
        let primary = c.placement.primary.(item) in
        t.remote <- t.remote + 1;
        remote_sites := Exec.add_site primary !remote_sites;
        Cluster.use_cpu c site c.params.cpu_msg;
        if Exec.request c t.net ~src:site ~dst:primary (fun reply ->
               Read_request { item; txn = a; reply })
        then begin
          (* Read the local replica under the primary's lock. *)
          Cluster.use_cpu c site c.params.cpu_op;
          ignore (Store.read c.stores.(site) item);
          run rest
        end
        else Error Txn.Remote_denied
    | op :: rest -> ( match Exec.run_op c ~gid ~attempt ~site op with Ok () -> run rest | e -> e)
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_primary c a reason ~cleanup:(fun () -> release_remote t a !remote_sites)
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
             Exec.request c t.net ~src:site ~dst (fun reply ->
                 Push { gid; writes; origin_commit; reply })));
      Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait
        (Sim.now c.sim -. origin_commit);
      Metrics.txn_commit c.metrics ~gid ~site;
      Exec.release c ~attempt ~site;
      release_remote t a !remote_sites;
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
