module Sim = Repdb_sim.Sim
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "naive"
let updates_replicas = true

type t = { c : Cluster.t; net : Exec.update Network.t }

let create (c : Cluster.t) =
  let net = Cluster.make_net c in
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> Exec.update_applier c net site)
  done;
  { c; net }

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason ->
      Exec.abort_local c ~attempt ~site;
      Metrics.txn_abort c.metrics ~gid ~site reason;
      Txn.Aborted reason
  | Ok () ->
      let writes = List.sort_uniq compare (Txn.writes spec) in
      Exec.commit_local c ~gid ~attempt ~site writes;
      (* Indiscriminate: straight to every replica site, no ordering. *)
      Exec.send_updates c t.net ~site ~gid writes;
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
