module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "psl"
let updates_replicas = false

type msg =
  | Read_request of { item : int; owner : int; reply : bool -> unit }
  | Read_reply of { granted : bool; deliver : bool -> unit }
      (** The grant (with the shipped value) or denial travelling back. *)
  | Release of { owner : int }

type t = { c : Cluster.t; net : msg Network.t; mutable remote : int }

let remote_reads t = t.remote

(* Serve a shared-lock request at the item's primary site; runs as its own
   process since the lock wait can block. The reply is itself a network
   message carrying the current value back with the lock grant. *)
let serve_read t site ~src ~item ~owner ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Network.send t.net ~src:site ~dst:src (Read_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner item Lock_mgr.Shared with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      ignore (Store.read c.stores.(site) item);
      History.record c.history ~site ~item ~gid:owner ~attempt:owner History.R;
      respond true
  | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> respond false

let server t site =
  let inbox = Network.inbox t.net site in
  let rec loop () =
    let src, msg = Mailbox.recv inbox in
    (match msg with
    | Read_request { item; owner; reply } ->
        Sim.spawn t.c.sim (fun () -> serve_read t site ~src ~item ~owner ~reply)
    | Read_reply { granted; deliver } ->
        Cluster.dec_outstanding t.c;
        deliver granted
    | Release { owner } ->
        Sim.spawn t.c.sim (fun () ->
            Cluster.use_cpu t.c site t.c.params.cpu_msg;
            Lock_mgr.release_all t.c.locks.(site) ~owner;
            Cluster.dec_outstanding t.c));
    loop ()
  in
  loop ()

let describe_msg = function
  | Read_request _ -> ("read-request", 24)
  | Read_reply _ -> ("read-reply", 16)
  | Release _ -> ("release", 16)

let create (c : Cluster.t) =
  let net = Cluster.make_net ~describe:describe_msg c in
  let t = { c; net; remote = 0 } in
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> server t site)
  done;
  t

(* Blocking remote read: ask the primary for the shared lock and the current
   value. Honours the armed transaction deadline: a timer resumes the waiter
   with [`Deadline] (resumption is one-shot, so a late grant or denial is
   ignored — the Release sent at abort releases any lock the primary granted
   meanwhile, and [release_all] also cancels a still-pending wait there). *)
let remote_read t ~site ~primary ~item ~owner ~deadline_at =
  let c = t.c in
  t.remote <- t.remote + 1;
  Cluster.use_cpu c site c.params.cpu_msg;
  if Sim.now c.sim >= deadline_at then `Deadline
  else
    Sim.suspend (fun resume ->
        Cluster.inc_outstanding c;
        if deadline_at < infinity then Sim.at c.sim deadline_at (fun () -> resume `Deadline);
        Network.send t.net ~src:site ~dst:primary
          (Read_request
             { item; owner; reply = (fun granted -> resume (if granted then `Granted else `Denied)) }))

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let deadline_at = Cluster.deadline_at c in
  (* PSL locks span sites, so the gid doubles as the attempt/lock-owner id;
     remote primaries record history under it directly. *)
  let gid = Cluster.fresh_gid c in
  let attempt = gid in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  let remote_sites = Hashtbl.create 4 in
  let cleanup_remote () =
    Hashtbl.iter
      (fun primary () ->
        Cluster.inc_outstanding c;
        Network.send t.net ~src:site ~dst:primary (Release { owner = attempt }))
      remote_sites
  in
  let rec run = function
    | [] -> Ok ()
    | Txn.Read item :: rest when c.placement.primary.(item) <> site -> (
        let primary = c.placement.primary.(item) in
        let stale =
          if c.params.stale_reads > 0.0 && not (Network.reachable t.net ~src:site ~dst:primary)
          then Some (Cluster.staleness c ~site ~item)
          else None
        in
        match stale with
        | Some staleness when staleness <= c.params.stale_reads ->
            (* Graceful degradation: the primary is on the other side of a
               partition and the local copy is within the staleness bound —
               serve the read locally, outside the 1SR guarantee (no lock, no
               history record). *)
            Cluster.use_cpu c site c.params.cpu_op;
            ignore (Store.read c.stores.(site) item);
            Metrics.stale_read c.metrics ~site ~item ~staleness;
            run rest
        | _ -> (
            Hashtbl.replace remote_sites primary ();
            (* The round-trip to the primary is the PSL propagation wait:
               lock-grant latency shows up at the reader. *)
            let t0 = Sim.now c.sim in
            let reply = remote_read t ~site ~primary ~item ~owner:attempt ~deadline_at in
            Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait (Sim.now c.sim -. t0);
            match reply with
            | `Granted ->
                Cluster.use_cpu c site c.params.cpu_msg;
                run rest
            | `Denied -> Error Txn.Remote_denied
            | `Deadline ->
                Metrics.deadline c.metrics ~gid ~site;
                Error Txn.Deadline_exceeded))
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
      Exec.commit_local c ~gid ~attempt ~site writes;
      cleanup_remote ();
      if Hashtbl.length remote_sites > 0 then
        Cluster.use_cpu c site (float_of_int (Hashtbl.length remote_sites) *. c.params.cpu_msg);
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
