module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Value = Repdb_store.Value
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "central"
let updates_replicas = true

let central_site = 0

type cert_msg =
  | Certify of { reads : (int * int) list; writes : int list; reply : bool -> unit }
  | Certify_reply of { ok : bool; deliver : bool -> unit }

type t = {
  c : Cluster.t;
  net : cert_msg Network.t;
  update_net : Exec.update Network.t;
  committed_version : int array; (* per item, at the central site *)
  mutable n_certified : int;
  mutable n_rejected : int;
}

let certified t = t.n_certified
let rejected t = t.n_rejected

(* The certification check itself: every read must still be current. Charged
   to the central site's CPU by the caller. *)
let decide t ~reads ~writes =
  let ok = List.for_all (fun (item, version) -> t.committed_version.(item) = version) reads in
  if ok then begin
    List.iter (fun item -> t.committed_version.(item) <- t.committed_version.(item) + 1) writes;
    t.n_certified <- t.n_certified + 1
  end
  else t.n_rejected <- t.n_rejected + 1;
  ok

let serve_certify t ~src ~reads ~writes ~reply =
  let c = t.c in
  (* The central site's CPU is the shared bottleneck. *)
  Cluster.use_cpu c central_site (c.params.cpu_msg +. c.params.cpu_op);
  let ok = decide t ~reads ~writes in
  Network.send t.net ~src:central_site ~dst:src (Certify_reply { ok; deliver = reply })

let cert_server t site =
  let c = t.c in
  let inbox = Network.inbox t.net site in
  let rec loop () =
    let src, msg = Mailbox.recv inbox in
    (match msg with
    | Certify { reads; writes; reply } ->
        (* The request's outstanding count carries over to the reply. *)
        Sim.spawn c.sim (fun () -> serve_certify t ~src ~reads ~writes ~reply)
    | Certify_reply { ok; deliver } ->
        Cluster.dec_outstanding c;
        deliver ok);
    loop ()
  in
  loop ()

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net c;
      update_net = Cluster.make_net c;
      committed_version = Array.make c.params.n_items 0;
      n_certified = 0;
      n_rejected = 0;
    }
  in
  (* One sequential applier per site: updates of an item all originate at its
     primary, so FIFO delivery + in-order application preserves the
     certification order (concurrent application could invert two updates
     that overlap on some items but not others). *)
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> cert_server t site);
    Sim.spawn ~cat c.sim (fun () -> Exec.update_applier c t.update_net site)
  done;
  t

let certify t ~site ~reads ~writes =
  let c = t.c in
  if site = central_site then begin
    Cluster.use_cpu c central_site c.params.cpu_op;
    decide t ~reads ~writes
  end
  else begin
    Cluster.use_cpu c site c.params.cpu_msg;
    Sim.suspend (fun resume ->
        Cluster.inc_outstanding c;
        Network.send t.net ~src:site ~dst:central_site (Certify { reads; writes; reply = resume }))
  end

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  let abort reason =
    Exec.abort_local c ~attempt ~site;
    Metrics.txn_abort c.metrics ~gid ~site reason;
    Txn.Aborted reason
  in
  (* Strict 2PL locally, capturing the version of every item read (the
     certification evidence). *)
  let reads = ref [] in
  let on_read item (v : Value.t) = reads := (item, v.version) :: !reads in
  match Exec.run_ops ~on_read c ~gid ~attempt ~site spec.ops with
  | Error reason -> abort reason
  | Ok () ->
      let reads = List.rev !reads in
      let writes = List.sort_uniq compare (Txn.writes spec) in
      if certify t ~site ~reads ~writes then begin
        Exec.commit_local c ~gid ~attempt ~site writes;
        (* Lazy direct propagation; per-item streams are FIFO from the
           primary, so replicas apply in certification order. *)
        Exec.send_updates c t.update_net ~site ~gid writes;
        Txn.Committed
      end
      else abort Txn.Remote_denied

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
