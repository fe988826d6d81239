module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "psl"
let updates_replicas = false

(* PSL sends nothing of its own. *)
type none = |

type t = {
  c : Cluster.t;
  net : none Exec.remote Network.t;
  apply_mtime : float array array option;
      (* [site][item] -> simulated time of PSL's last commit that wrote the
         copy; the staleness clock of partition-time local reads. Allocated
         only when those reads are on: m * n floats is 160 MB at 200 sites x
         100k items. *)
}

let describe_msg : none Exec.remote -> _ = function
  | Lock _ -> ("read-request", 24)
  | Reply _ -> ("read-reply", 16)
  | Release _ -> ("release", 16)
  | Own _ -> .

let create (c : Cluster.t) =
  let net = Cluster.make_net ~describe:describe_msg c in
  let apply_mtime =
    if c.params.stale_reads > 0.0 then
      Some (Array.init c.params.n_sites (fun _ -> Array.make c.params.n_items 0.0))
    else None
  in
  (* A granted shared lock at the item's primary ships the current value
     back with the reply. *)
  Exec.serve_remote c net Lock_mgr.Shared
    ~on_grant:(fun ~site ~item (txn : Exec.primary) ->
      Cluster.use_cpu c site c.params.cpu_op;
      ignore (Store.read c.stores.(site) item);
      History.record c.history ~site ~item ~gid:txn.gid ~attempt:txn.attempt History.R)
    ~own:(fun ~site:_ ~src:_ -> function (_ : none) -> .);
  { c; net; apply_mtime }

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
               lock-grant latency shows up at the reader. A deadline timer
               may resume it first; the Release sent at abort then frees
               any lock granted meanwhile, or cancels the pending wait. *)
            let t0 = Sim.now c.sim in
            Cluster.use_cpu c site c.params.cpu_msg;
            let answer : Exec.answer =
              if Sim.now c.sim >= a.deadline_at then Expired
              else Exec.lock_remote c t.net a ~dst:primary ~deadline:a.deadline_at item
            in
            Metrics.span c.metrics ~owner:attempt Repdb_obs.Span.Prop_wait (Sim.now c.sim -. t0);
            match answer with
            | Granted ->
                Cluster.use_cpu c site c.params.cpu_msg;
                run rest
            | Denied -> Error Txn.Remote_denied
            | Expired -> Error Txn.Deadline_exceeded))
    | op :: rest -> ( match Exec.run_op c ~gid ~attempt ~site op with Ok () -> run rest | e -> e)
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_primary c a reason ~cleanup:(fun () -> Exec.release_remote c t.net a !remote_sites)
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
      Exec.release_remote c t.net a !remote_sites;
      if !remote_sites <> [] then
        Cluster.use_cpu c site (float_of_int (List.length !remote_sites) *. c.params.cpu_msg);
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
