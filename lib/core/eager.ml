module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "eager"
let updates_replicas = true

type msg =
  | Wlock_request of { item : int; owner : int; reply : bool -> unit }
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

let serve_wlock t site ~src ~item ~owner ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Network.send t.net ~src:site ~dst:src (Wlock_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner item Lock_mgr.Exclusive with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      Repdb_txn.History.record c.history ~site ~item ~gid:owner ~attempt:owner Repdb_txn.History.W;
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

let server t site =
  let inbox = Network.inbox t.net site in
  let rec loop () =
    let src, msg = Mailbox.recv inbox in
    (match msg with
    | Wlock_request { item; owner; reply } ->
        Sim.spawn t.c.sim (fun () -> serve_wlock t site ~src ~item ~owner ~reply)
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
        Sim.spawn t.c.sim (fun () -> decide t site ~owner ~gid ~commit ~origin_commit));
    loop ()
  in
  loop ()

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
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> server t site)
  done;
  t

let rpc t ~site ~dst msg_of_reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  Sim.suspend (fun resume ->
      Cluster.inc_outstanding c;
      Network.send t.net ~src:site ~dst (msg_of_reply resume))

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let gid = Cluster.fresh_gid c in
  let attempt = gid in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  let participants = Hashtbl.create 4 in
  let finish_remote commit origin_commit =
    Hashtbl.iter
      (fun dst () ->
        Cluster.inc_outstanding c;
        Network.send t.net ~src:site ~dst (Decide { owner = attempt; gid; commit; origin_commit }))
      participants
  in
  let write_everywhere item =
    let reps = c.placement.replicas.(item) in
    let rec go i =
      if i >= Array.length reps then Ok ()
      else begin
        let dst = reps.(i) in
        t.remote <- t.remote + 1;
        Hashtbl.replace participants dst ();
        if rpc t ~site ~dst (fun reply -> Wlock_request { item; owner = attempt; reply }) then begin
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
        match Exec.run_ops c ~gid ~attempt ~site [ op ] with
        | Error reason -> Error reason
        | Ok () -> (
            match op with
            | Txn.Read _ -> run rest
            | Txn.Write item -> ( match write_everywhere item with Ok () -> run rest | e -> e)))
  in
  match run spec.ops with
  | Error reason ->
      Exec.abort_local c ~attempt ~site;
      finish_remote false 0.0;
      Metrics.txn_abort c.metrics ~gid ~site reason;
      Txn.Aborted reason
  | Ok () ->
      (* Phase 1: prepare round to every participant. *)
      Hashtbl.iter
        (fun dst () -> ignore (rpc t ~site ~dst (fun resume -> Prepare { owner = attempt; reply = (fun () -> resume true) })))
        participants;
      (* Phase 2: commit locally, then decide. *)
      let writes = List.sort_uniq compare (Txn.writes spec) in
      Exec.commit_local c ~gid ~attempt ~site writes;
      Metrics.destined c.metrics c.placement ~items:writes;
      finish_remote true (Sim.now c.sim);
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
