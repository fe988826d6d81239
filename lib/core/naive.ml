module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "naive"
let updates_replicas = true

type t = { c : Cluster.t; net : Exec.update Network.t }

let create (c : Cluster.t) =
  let net = Cluster.make_net c in
  for site = 0 to c.params.n_sites - 1 do
    Exec.update_applier c net site
  done;
  { c; net }

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; _ } : Exec.primary) as a = Exec.begin_primary c ~site:spec.origin in
  match Exec.run_ops c ~gid ~attempt ~site spec.ops with
  | Error reason -> Exec.abort_primary c a reason
  | Ok () ->
      let writes = Txn.writes spec in
      Exec.commit_local c a writes;
      (* Indiscriminate: straight to every replica site, no ordering. *)
      Exec.send_updates c t.net ~site ~gid writes;
      Txn.Committed

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
