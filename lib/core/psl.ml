module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "psl"
let updates_replicas = false

type msg =
  | Read_request of { item : int; txn : Exec.primary; reply : bool -> unit }
  | Read_reply of { granted : bool; deliver : bool -> unit }
      (** The grant (with the shipped value) or denial travelling back. *)
  | Release of { owner : int }

type t = {
  c : Cluster.t;
  net : msg Network.t;
  mutable remote : int;
  apply_mtime : float array array option;
      (* [site][item] -> simulated time of PSL's last commit that wrote the
         copy; the staleness clock of partition-time local reads. Allocated
         only when those reads are on: m * n floats is 160 MB at 200 sites x
         100k items. *)
}

let remote_reads t = t.remote

(* Serve a shared-lock request at the item's primary site; runs as its own
   process since the lock wait can block. The reply is itself a network
   message carrying the current value back with the lock grant. *)
let serve_read t site ~src ~item ~(txn : Exec.primary) ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Network.send t.net ~src:site ~dst:src (Read_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner:txn.attempt item Lock_mgr.Shared with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      ignore (Store.read c.stores.(site) item);
      History.record c.history ~site ~item ~gid:txn.gid ~attempt:txn.attempt History.R;
      respond true
  | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> respond false

let handle t site ~src = function
  | Read_request { item; txn; reply } ->
      Sim.spawn t.c.sim (fun () -> serve_read t site ~src ~item ~txn ~reply)
  | Read_reply { granted; deliver } ->
      Cluster.dec_outstanding t.c;
      deliver granted
  | Release { owner } ->
      Sim.spawn t.c.sim (fun () ->
          Cluster.use_cpu t.c site t.c.params.cpu_msg;
          Lock_mgr.release_all t.c.locks.(site) ~owner;
          Cluster.dec_outstanding t.c)

let describe_msg = function
  | Read_request _ -> ("read-request", 24)
  | Read_reply _ -> ("read-reply", 16)
  | Release _ -> ("release", 16)

let create (c : Cluster.t) =
  let net = Cluster.make_net ~describe:describe_msg c in
  let apply_mtime =
    if c.params.stale_reads > 0.0 then
      Some (Array.init c.params.n_sites (fun _ -> Array.make c.params.n_items 0.0))
    else None
  in
  let t = { c; net; remote = 0; apply_mtime } in
  for site = 0 to c.params.n_sites - 1 do
    Network.serve net site (handle t site)
  done;
  t

(* Blocking remote read: ask the primary for the shared lock and the current
   value. Honours the transaction deadline: a timer resumes the waiter
   with [`Deadline] (resumption is one-shot, so a late grant or denial is
   ignored — the Release sent at abort releases any lock the primary granted
   meanwhile, and [release_all] also cancels a still-pending wait there). *)
let remote_read t (txn : Exec.primary) ~primary ~item =
  let c = t.c in
  t.remote <- t.remote + 1;
  Cluster.use_cpu c txn.site c.params.cpu_msg;
  if Sim.now c.sim >= txn.deadline_at then `Deadline
  else
    Exec.request c t.net ~src:txn.site ~dst:primary ~deadline:(txn.deadline_at, `Deadline)
      (fun resume ->
        Read_request
          { item; txn; reply = (fun granted -> resume (if granted then `Granted else `Denied)) })

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
    | Txn.Read item :: rest when c.placement.primary.(item) <> site -> (
        let primary = c.placement.primary.(item) in
        let stale =
          match t.apply_mtime with
          | Some mtime when not (Network.reachable t.net ~src:site ~dst:primary) ->
              Some (Sim.now c.sim -. mtime.(site).(item))
          | _ -> None
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
            remote_sites := Exec.add_site primary !remote_sites;
            (* The round-trip to the primary is the PSL propagation wait:
               lock-grant latency shows up at the reader. *)
            let t0 = Sim.now c.sim in
            let reply = remote_read t a ~primary ~item in
            Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait (Sim.now c.sim -. t0);
            match reply with
            | `Granted ->
                Cluster.use_cpu c site c.params.cpu_msg;
                run rest
            | `Denied -> Error Txn.Remote_denied
            | `Deadline -> Error Txn.Deadline_exceeded))
    | op :: rest -> ( match Exec.run_op c ~gid ~attempt ~site op with Ok () -> run rest | e -> e)
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_primary c a reason ~cleanup:(fun () -> release_remote t a !remote_sites)
  | Ok () ->
      let writes = Txn.writes spec in
      Exec.commit_local c a writes;
      (* PSL never applies updates at replicas, and state transfers and
         repairs install without stamping, so its own commits are the only
         writes that move a copy's staleness clock. *)
      (match t.apply_mtime with
      | None -> ()
      | Some mtime ->
          let now = Sim.now c.sim in
          List.iter (fun item -> mtime.(site).(item) <- now) writes);
      release_remote t a !remote_sites;
      if !remote_sites <> [] then
        Cluster.use_cpu c site (float_of_int (List.length !remote_sites) *. c.params.cpu_msg);
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
