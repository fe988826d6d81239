module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
module Txn = Repdb_txn.Txn

let name = "lazy-master"
let updates_replicas = true

type msg =
  | Read_request of { item : int; owner : int; reply : bool -> unit }
  | Read_reply of { granted : bool; deliver : bool -> unit }
  | Push of { gid : int; writes : int list; origin_commit : float; reply : unit -> unit }
      (** Updates shipped to a replica site; acknowledged once applied. *)
  | Push_ack of { deliver : unit -> unit }
  | Release of { owner : int }

(* Only [Push] messages coalesce (they are the lazy propagation stream); the
   lock-protocol traffic — read requests, replies, acks, releases — ships via
   [push_now], which flushes any parked pushes on the pair first so the
   channel order the lock protocol relies on is preserved. *)
type t = { c : Cluster.t; net : msg list Network.t; bat : msg Batcher.t; mutable remote : int }

let remote_reads t = t.remote

(* Serve a shared-lock request at the primary (the value is then read from
   the local replica at the requester — fresh, because writers hold their
   locks until every replica acknowledged). *)
let serve_read t site ~src ~item ~owner ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Batcher.push_now t.bat ~src:site ~dst:src (Read_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner item Lock_mgr.Shared with
  | Lock_mgr.Granted ->
      History.record c.history ~site ~item ~gid:owner ~attempt:owner History.R;
      respond true
  | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> respond false

(* Apply a pushed update set at a replica site (short local X locks, retried
   against concurrent pushes), then acknowledge. *)
let serve_push t site ~src ~gid ~writes ~origin_commit ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let items = Routing.local_replicas c.placement site writes in
  Exec.apply_secondary c ~gid ~site ~origin_commit items;
  Batcher.push_now t.bat ~src:site ~dst:src (Push_ack { deliver = reply })

let server t site =
  let inbox = Network.inbox t.net site in
  let handle src msg =
    match msg with
    | Read_request { item; owner; reply } ->
        Sim.spawn t.c.sim (fun () -> serve_read t site ~src ~item ~owner ~reply)
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
  in
  let rec loop () =
    let src, batch = Mailbox.recv inbox in
    List.iter (handle src) batch;
    loop ()
  in
  loop ()

let create (c : Cluster.t) =
  let net = Cluster.make_batch_net c in
  let t = { c; net; bat = Cluster.make_batcher c net; remote = 0 } in
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> server t site)
  done;
  t

(* [batched] only for pushes: the lazy stream may park in the coalescer;
   synchronous lock traffic always flushes ahead of itself and ships now. *)
let rpc ?(batched = false) t ~site ~dst msg_of_reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  Sim.suspend (fun resume ->
      Cluster.inc_outstanding c;
      if batched then Batcher.push t.bat ~src:site ~dst (msg_of_reply resume)
      else Batcher.push_now t.bat ~src:site ~dst (msg_of_reply resume))

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let gid = Cluster.fresh_gid c in
  let attempt = gid in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  let remote_sites = Hashtbl.create 4 in
  let cleanup_remote () =
    Hashtbl.iter
      (fun primary () ->
        Cluster.inc_outstanding c;
        Batcher.push_now t.bat ~src:site ~dst:primary (Release { owner = attempt }))
      remote_sites
  in
  let rec run = function
    | [] -> Ok ()
    | Txn.Read item :: rest when c.placement.primary.(item) <> site ->
        let primary = c.placement.primary.(item) in
        t.remote <- t.remote + 1;
        Hashtbl.replace remote_sites primary ();
        if rpc t ~site ~dst:primary (fun reply -> Read_request { item; owner = attempt; reply })
        then begin
          (* Read the local replica under the primary's lock. *)
          Cluster.use_cpu c site c.params.cpu_op;
          ignore (Store.read c.stores.(site) item);
          run rest
        end
        else Error Txn.Remote_denied
    | op :: rest -> ( match Exec.run_ops c ~gid ~attempt ~site [ op ] with Ok () -> run rest | e -> e)
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_local c ~attempt ~site;
      cleanup_remote ();
      Metrics.txn_abort c.metrics ~gid ~site reason;
      Txn.Aborted reason
  | Ok () ->
      let writes = List.sort_uniq compare (Txn.writes spec) in
      Exec.commit_cost ~owner:attempt c ~site;
      Exec.apply_writes c ~gid ~site writes;
      (* Push the updates one replica site at a time (each rpc charges its
         own message) and hold every lock until all replicas ack. *)
      let origin_commit = Sim.now c.sim in
      ignore
        (Exec.fan_out c ~site writes (fun dst ->
             ignore
               (rpc ~batched:true t ~site ~dst (fun resume ->
                    Push { gid; writes; origin_commit; reply = (fun () -> resume true) }))));
      Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait
        (Sim.now c.sim -. origin_commit);
      Metrics.txn_commit c.metrics ~gid ~site;
      Exec.release c ~attempt ~site;
      cleanup_remote ();
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
