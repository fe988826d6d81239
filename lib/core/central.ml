module Sim = Repdb_sim.Sim
module Value = Repdb_store.Value
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn
module Validator = Repdb_occ.Validator

let name = "central"
let updates_replicas = true

let central_site = 0

type cert_msg =
  | Certify of { txn : Validator.txn; reply : bool Sim.once }
  | Certify_reply of { ok : bool; reply : bool Sim.once }

type t = {
  c : Cluster.t;
  net : cert_msg Network.t;
  update_net : Exec.update Network.t;
  validator : Validator.t; (* at the central site *)
}

let certified t = Validator.validated t.validator
let rejected t = Validator.rejected t.validator

(* The certification check itself: every read must still be current. Charged
   to the central site's CPU by the caller. *)
let decide t txn = Option.is_some (Validator.validate t.validator txn)

let serve_certify t ~src ~txn ~reply =
  let c = t.c in
  (* The central site's CPU is the shared bottleneck. *)
  Cluster.use_cpu c central_site (c.params.cpu_msg +. c.params.cpu_op);
  let ok = decide t txn in
  Network.send t.net ~src:central_site ~dst:src (Certify_reply { ok; reply })

let handle t ~src = function
  | Certify { txn; reply } ->
      (* The request's outstanding count carries over to the reply. *)
      Sim.spawn t.c.sim (fun () -> serve_certify t ~src ~txn ~reply)
  | Certify_reply { ok; reply } ->
      Cluster.dec_outstanding t.c;
      ignore (Sim.fire reply ok)

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net c;
      update_net = Cluster.make_net c;
      validator = Validator.create ();
    }
  in
  (* One sequential applier per site: updates of an item all originate at its
     primary, so FIFO delivery + in-order application preserves the
     certification order (concurrent application could invert two updates
     that overlap on some items but not others). *)
  for site = 0 to c.params.n_sites - 1 do
    Network.serve t.net site (handle t);
    Exec.update_applier c t.update_net site
  done;
  t

let certify t ~site txn =
  let c = t.c in
  if site = central_site then begin
    Cluster.use_cpu c central_site c.params.cpu_op;
    decide t txn
  end
  else begin
    Cluster.use_cpu c site c.params.cpu_msg;
    let reply = Sim.once () in
    Exec.request c t.net ~src:site ~dst:central_site ~deadline:infinity ~expired:false reply
      (Certify { txn; reply })
  end

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  (* Strict 2PL locally, capturing the version of every item read (the
     certification evidence). *)
  let reads = ref [] in
  let on_read item (v : Value.t) = reads := (item, v.version) :: !reads in
  match Exec.run_ops ~on_read c ~gid ~attempt ~site spec.ops with
  | Error reason -> Exec.abort_primary c a reason
  | Ok () ->
      let reads = List.rev !reads in
      let writes = Txn.writes spec in
      if certify t ~site { gid; reads; writes } then begin
        Exec.commit_local c a writes;
        (* Lazy direct propagation; per-item streams are FIFO from the
           primary, so replicas apply in certification order. *)
        Exec.send_updates c t.update_net ~site ~gid writes;
        Txn.Committed
      end
      else Exec.abort_primary c a Txn.Remote_denied

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
