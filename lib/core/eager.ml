module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "eager"
let updates_replicas = true

type msg =
  | Wlock_request of { item : int; txn : Exec.primary; reply : bool -> unit }
  | Wlock_reply of { granted : bool; deliver : bool -> unit }
  | Prepare of { owner : int; reply : unit -> unit }
  | Prepare_ack of { deliver : unit -> unit }
  | Decide of { owner : int; gid : int; commit : bool; origin_commit : float }

type t = {
  c : Cluster.t;
  net : msg Network.t;
  staged : (int, int list ref) Hashtbl.t array; (* per site: owner -> staged items *)
  mutable remote : int;
}

let remote_writes t = t.remote

let serve_wlock t site ~src ~item ~(txn : Exec.primary) ~reply =
  let c = t.c in
  let owner = txn.attempt in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Network.send t.net ~src:site ~dst:src (Wlock_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner item Lock_mgr.Exclusive with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      Repdb_txn.History.record c.history ~site ~item ~gid:txn.gid ~attempt:owner
        Repdb_txn.History.W;
      let cell =
        match Hashtbl.find_opt t.staged.(site) owner with
        | Some cell -> cell
        | None ->
            let cell = ref [] in
            Hashtbl.replace t.staged.(site) owner cell;
            cell
      in
      cell := item :: !cell;
      respond true
  | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> respond false

let decide t site ~owner ~gid ~commit ~origin_commit =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  (match Hashtbl.find_opt t.staged.(site) owner with
  | Some cell ->
      Hashtbl.remove t.staged.(site) owner;
      if commit then begin
        Exec.apply_writes c ~gid ~site (List.sort_uniq compare !cell);
        Metrics.propagation c.metrics ~gid ~site ~delay:(Sim.now c.sim -. origin_commit)
      end
      else Repdb_txn.History.discard_attempt c.history ~attempt:owner
  | None -> ());
  Lock_mgr.release_all c.locks.(site) ~owner;
  Cluster.dec_outstanding c

let handle t site ~src = function
  | Wlock_request { item; txn; reply } ->
      Sim.spawn t.c.sim (fun () -> serve_wlock t site ~src ~item ~txn ~reply)
  | Wlock_reply { granted; deliver } ->
      Cluster.dec_outstanding t.c;
      deliver granted
  | Prepare { owner = _; reply } ->
      (* Locks are already held and writes staged: always vote yes. *)
      Network.send t.net ~src:site ~dst:src (Prepare_ack { deliver = reply })
  | Prepare_ack { deliver } ->
      Cluster.dec_outstanding t.c;
      deliver ()
  | Decide { owner; gid; commit; origin_commit } ->
      Sim.spawn t.c.sim (fun () -> decide t site ~owner ~gid ~commit ~origin_commit)

let create (c : Cluster.t) =
  let net = Cluster.make_net c in
  let t =
    {
      c;
      net;
      staged = Array.init c.params.n_sites (fun _ -> Hashtbl.create 16);
      remote = 0;
    }
  in
  for site = 0 to c.params.n_sites - 1 do
    Network.serve net site (handle t site)
  done;
  t

(* Phase 2 (or an abort): tell every participant the outcome, in ascending
   site order. *)
let decide_remote t (a : Exec.primary) participants ~commit ~origin_commit =
  List.iter
    (fun dst ->
      Cluster.inc_outstanding t.c;
      Network.send t.net ~src:a.site ~dst
        (Decide { owner = a.attempt; gid = a.gid; commit; origin_commit }))
    participants

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
        t.remote <- t.remote + 1;
        participants := Exec.add_site dst !participants;
        Cluster.use_cpu c site c.params.cpu_msg;
        if Exec.request c t.net ~src:site ~dst (fun reply ->
               Wlock_request { item; txn = a; reply })
        then begin
          Cluster.use_cpu c site c.params.cpu_msg;
          go (i + 1)
        end
        else Error Txn.Remote_denied
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
          Exec.request c t.net ~src:site ~dst (fun reply -> Prepare { owner = attempt; reply }))
        !participants;
      (* Phase 2: commit locally, then decide. *)
      let writes = Txn.writes spec in
      Exec.commit_local c a writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      decide_remote t a !participants ~commit:true ~origin_commit:(Sim.now c.sim);
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
