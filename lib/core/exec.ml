module Sim = Repdb_sim.Sim
module Txn = Repdb_txn.Txn
module History = Repdb_txn.History
module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Network = Repdb_net.Network
module Placement = Repdb_workload.Placement

let abort_reason_of_outcome = function
  | Lock_mgr.Timed_out -> Txn.Lock_timeout
  | Lock_mgr.Deadlock_victim -> Txn.Deadlock
  | Lock_mgr.Granted -> invalid_arg "Exec.abort_reason_of_outcome: Granted"

let request c net ~src ~dst ~deadline ~expired reply msg =
  Cluster.inc_outstanding c;
  if deadline < infinity then
    Sim.at c.Cluster.sim deadline (fun () -> ignore (Sim.fire reply expired));
  Network.send net ~src ~dst msg;
  Sim.await reply

(* Lock [item] in [mode] for [attempt], charge [cpu_op] and record the
   access; a shared lock is a read, whose value goes to [on_read]. Writes are
   deferred to commit. *)
let access on_read (c : Cluster.t) ~gid ~attempt ~site item mode =
  match Lock_mgr.acquire c.locks.(site) ~owner:attempt item mode with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      let kind =
        match mode with
        | Lock_mgr.Shared ->
            let v = Store.read c.stores.(site) item in
            (match on_read with Some f -> f item v | None -> ());
            History.R
        | Lock_mgr.Exclusive -> History.W
      in
      History.record c.history ~site ~item ~gid ~attempt kind;
      Ok ()
  | (Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim) as o -> Error (abort_reason_of_outcome o)

let op_access on_read c ~gid ~attempt ~site = function
  | Txn.Read item -> access on_read c ~gid ~attempt ~site item Lock_mgr.Shared
  | Txn.Write item -> access None c ~gid ~attempt ~site item Lock_mgr.Exclusive

let run_op c ~gid ~attempt ~site op = op_access None c ~gid ~attempt ~site op

(* Recursions on the functions themselves, not local loops or a mapped op
   list: no allocation per call beyond an abort's [Error]. *)
let rec run_ops ?on_read c ~gid ~attempt ~site = function
  | [] -> Ok ()
  | op :: rest -> (
      match op_access on_read c ~gid ~attempt ~site op with
      | Ok () -> run_ops ?on_read c ~gid ~attempt ~site rest
      | e -> e)

let rec acquire_writes c ~gid ~attempt ~site = function
  | [] -> Ok ()
  | item :: rest -> (
      match access None c ~gid ~attempt ~site item Lock_mgr.Exclusive with
      | Ok () -> acquire_writes c ~gid ~attempt ~site rest
      | e -> e)

let apply_writes (c : Cluster.t) ~gid ~site items =
  List.iter (fun item -> Store.apply c.stores.(site) item ~writer:gid ()) items

let commit_cost ?owner (c : Cluster.t) ~site =
  match owner with
  | None -> Cluster.use_cpu c site c.params.cpu_commit
  | Some owner ->
      let t0 = Sim.now c.sim in
      Cluster.use_cpu c site c.params.cpu_commit;
      Metrics.span c.metrics ~owner Repdb_obs.Span.Commit (Sim.now c.sim -. t0)

let release (c : Cluster.t) ~attempt ~site = Lock_mgr.release_all c.locks.(site) ~owner:attempt

let abort_local (c : Cluster.t) ~attempt ~site =
  History.discard_attempt c.history ~attempt;
  release c ~attempt ~site

(* --- primary attempts ------------------------------------------------------- *)

type primary = { gid : int; attempt : int; site : int; deadline_at : float }

let begin_primary (c : Cluster.t) ~site =
  let deadline_at = Cluster.deadline c in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  { gid; attempt; site; deadline_at }

let commit_local c a writes =
  commit_cost ~owner:a.attempt c ~site:a.site;
  apply_writes c ~gid:a.gid ~site:a.site writes;
  Metrics.txn_commit c.metrics ~gid:a.gid ~site:a.site;
  release c ~attempt:a.attempt ~site:a.site

let abort_primary ?cleanup (c : Cluster.t) a reason =
  (match reason with
  | Txn.Deadline_exceeded -> Metrics.deadline c.metrics ~gid:a.gid ~site:a.site
  | _ -> ());
  abort_local c ~attempt:a.attempt ~site:a.site;
  (match cleanup with Some f -> f () | None -> ());
  Metrics.txn_abort c.metrics ~gid:a.gid ~site:a.site reason;
  Txn.Aborted reason

(* --- remote participants ------------------------------------------------------ *)

type answer = Granted | Denied | Expired

type 'x remote =
  | Lock of { item : int; txn : primary; reply : answer Sim.once }
  | Reply of { answer : answer; reply : answer Sim.once }
  | Release of { owner : int }
  | Own of 'x

(* One site's server, built once, so a served [Lock] or [Release] spawns a
   closure over it rather than over each of its fields. *)
type 'x server = {
  c : Cluster.t;
  net : 'x remote Network.t;
  site : int;
  mode : Lock_mgr.mode;
  on_grant : site:int -> item:int -> primary -> unit;
  own : site:int -> src:int -> 'x -> unit;
}

let serve_lock ({ c; site; _ } as s) ~src ~item ~(txn : primary) ~reply =
  Cluster.use_cpu c site c.params.cpu_msg;
  let answer =
    match Lock_mgr.acquire c.locks.(site) ~owner:txn.attempt item s.mode with
    | Lock_mgr.Granted ->
        s.on_grant ~site ~item txn;
        Granted
    | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> Denied
  in
  Network.send s.net ~src:site ~dst:src (Reply { answer; reply })

let handle_remote s ~src = function
  | Lock { item; txn; reply } -> Sim.spawn s.c.sim (fun () -> serve_lock s ~src ~item ~txn ~reply)
  | Reply { answer; reply } ->
      Cluster.dec_outstanding s.c;
      ignore (Sim.fire reply answer)
  | Release { owner } ->
      Sim.spawn s.c.sim (fun () ->
          Cluster.use_cpu s.c s.site s.c.params.cpu_msg;
          release s.c ~attempt:owner ~site:s.site;
          Cluster.dec_outstanding s.c)
  | Own x -> s.own ~site:s.site ~src x

let serve_remote (c : Cluster.t) net mode ~on_grant ~own =
  for site = 0 to c.params.n_sites - 1 do
    Network.serve net site (handle_remote { c; net; site; mode; on_grant; own })
  done

(* A recursion on the function itself: no closure, nothing allocated. *)
let rec notify c net ~src sites msg =
  match sites with
  | [] -> ()
  | dst :: rest ->
      Cluster.inc_outstanding c;
      Network.send net ~src ~dst msg;
      notify c net ~src rest msg

let lock_remote c net (a : primary) ~dst ~deadline item =
  let reply = Sim.once () in
  request c net ~src:a.site ~dst ~deadline ~expired:Expired reply (Lock { item; txn = a; reply })

let release_remote c net (a : primary) sites =
  notify c net ~src:a.site sites (Release { owner = a.attempt })

let finish_staged (c : Cluster.t) ~gid ~attempt ~site ~commit ~origin_commit items =
  if commit then begin
    apply_writes c ~gid ~site items;
    Metrics.propagation c.metrics ~gid ~site ~delay:(Sim.now c.sim -. origin_commit)
  end
  else History.discard_attempt c.history ~attempt;
  release c ~attempt ~site

(* --- the replica side of propagation -------------------------------------- *)

let rec lock_secondary ?on_retry c ~gid ~site items =
  let attempt = Cluster.fresh_attempt c in
  match acquire_writes c ~gid ~attempt ~site items with
  | Ok () -> attempt
  | Error _ ->
      abort_local c ~attempt ~site;
      (match on_retry with Some f -> f site items | None -> ());
      lock_secondary ?on_retry c ~gid ~site items

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

(* --- destination sets ------------------------------------------------------ *)

(* The paper assumes FIFO links per pair of sites and nothing about the order
   of one site's same-instant sends to different sites, yet that order
   decides every later tie. It is ascending site id everywhere: [fan_out]
   loops over the site ids, and a participant set is an ascending list. *)

let fan_out (c : Cluster.t) ~site items send =
  let placement = c.placement in
  Metrics.destined c.metrics placement ~items;
  let n = ref 0 in
  for dst = 0 to placement.n_sites - 1 do
    if dst <> site && Placement.replicates_any placement ~site:dst items then begin
      incr n;
      send dst
    end
  done;
  !n

(* [sites] itself when [s] is already in it: a repeated participant costs no
   allocation. *)
let rec add_site s = function
  | d :: rest as sites when d < s ->
      let rest' = add_site s rest in
      if rest' == rest then sites else d :: rest'
  | d :: _ as sites when d = s -> sites
  | sites -> s :: sites

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
  Network.serve net site (fun ~src:_ u ->
      Cluster.use_cpu c site c.params.cpu_msg;
      let items = Placement.local_replicas c.placement site u.writes in
      apply_secondary c ~gid:u.gid ~site ~origin_commit:u.origin_commit items;
      Cluster.dec_outstanding c)

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
        History.record_versioned c.history ~site ~item ~gid ~attempt ~version History.W
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
  Network.serve net site (fun ~src:_ u ->
      Cluster.use_cpu c site c.params.cpu_msg;
      assert (u.u_epoch = Epoch.current c);
      let local = Placement.local_replicas c.placement site (List.map fst u.u_writes) in
      if local <> [] then begin
        install_versions ?on_install ~only:local c ~gid:u.u_gid ~site ~commit_ts:u.u_commit_ts
          u.u_writes;
        Metrics.secondary_commit c.metrics ~gid:u.u_gid ~site;
        Metrics.propagation c.metrics ~gid:u.u_gid ~site
          ~delay:(Sim.now c.sim -. u.u_origin_commit)
      end;
      Cluster.dec_outstanding c)
