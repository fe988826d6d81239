module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "eager"
let updates_replicas = true

type own =
  | Prepare of { reply : Exec.answer Sim.once }
  | Decide of { owner : int; gid : int; commit : bool; origin_commit : float }

type t = {
  c : Cluster.t;
  net : own Exec.remote Network.t;
  staged : (int, int list) Hashtbl.t array; (* per site: owner -> staged items *)
}

(* A granted remote write lock: charge the operation, record the write and
   stage the item until the decide. *)
let stage t ~site ~item (txn : Exec.primary) =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_op;
  Repdb_txn.History.record c.history ~site ~item ~gid:txn.gid ~attempt:txn.attempt
    Repdb_txn.History.W;
  let staged = t.staged.(site) in
  Hashtbl.replace staged txn.attempt
    (item :: Option.value ~default:[] (Hashtbl.find_opt staged txn.attempt))

let decide t site ~owner ~gid ~commit ~origin_commit =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  (match Hashtbl.find_opt t.staged.(site) owner with
  | Some items ->
      Hashtbl.remove t.staged.(site) owner;
      Exec.finish_staged c ~gid ~attempt:owner ~site ~commit ~origin_commit
        (List.sort_uniq compare items)
  | None -> Exec.release c ~attempt:owner ~site);
  Cluster.dec_outstanding c

let create (c : Cluster.t) =
  let staged = Array.init c.params.n_sites (fun _ -> Hashtbl.create 16) in
  let t = { c; net = Cluster.make_net c; staged } in
  Exec.serve_remote c t.net Lock_mgr.Exclusive ~on_grant:(stage t) ~own:(fun ~site ~src -> function
    | Prepare { reply } ->
        (* Locks are already held and writes staged: always vote yes. *)
        Network.send t.net ~src:site ~dst:src (Reply { answer = Granted; reply })
    | Decide { owner; gid; commit; origin_commit } ->
        Sim.spawn c.sim (fun () -> decide t site ~owner ~gid ~commit ~origin_commit));
  t

(* Phase 2 (or an abort): tell every participant the outcome, in ascending
   site order. *)
let decide_remote t (a : Exec.primary) participants ~commit ~origin_commit =
  Exec.notify t.c t.net ~src:a.site participants
    (Own (Decide { owner = a.attempt; gid = a.gid; commit; origin_commit }))

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  let participants = ref [] in
  let write_everywhere item =
    let reps = c.placement.replicas.(item) in
    let rec go i =
      if i >= Array.length reps then Ok ()
      else begin
        let dst = reps.(i) in
        participants := Exec.add_site dst !participants;
        Cluster.use_cpu c site c.params.cpu_msg;
        match Exec.lock_remote c t.net a ~dst ~deadline:infinity item with
        | Granted ->
            Cluster.use_cpu c site c.params.cpu_msg;
            go (i + 1)
        | Denied | Expired -> Error Txn.Remote_denied
      end
    in
    go 0
  in
  let rec run = function
    | [] -> Ok ()
    | op :: rest -> (
        match Exec.run_op c ~gid ~attempt ~site op with
        | Error reason -> Error reason
        | Ok () -> (
            match op with
            | Txn.Read _ -> run rest
            | Txn.Write item -> ( match write_everywhere item with Ok () -> run rest | e -> e)))
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_primary c a reason ~cleanup:(fun () ->
          decide_remote t a !participants ~commit:false ~origin_commit:0.0)
  | Ok () ->
      (* Phase 1: prepare round to every participant. *)
      List.iter
        (fun dst ->
          Cluster.use_cpu c site c.params.cpu_msg;
          let reply = Sim.once () in
          ignore
            (Exec.request c t.net ~src:site ~dst ~deadline:infinity ~expired:Exec.Expired reply
               (Own (Prepare { reply }))))
        !participants;
      (* Phase 2: commit locally, then decide. *)
      let writes = Txn.writes spec in
      Exec.commit_local c a writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      decide_remote t a !participants ~commit:true ~origin_commit:(Sim.now c.sim);
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
