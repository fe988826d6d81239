module Sim = Repdb_sim.Sim
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Mvstore = Repdb_store.Mvstore
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn
module Tracker = Repdb_occ.Conflict_tracker
module Placement = Repdb_workload.Placement
module Span = Repdb_obs.Span

let name = "ssi"
let updates_replicas = true

let certifier_site = 0

(* A copy site's answer to a snapshot read, as the reader sees it:
   [Snap_expired] is the reader's own deadline timer, never sent. *)
type snap = Version of int | No_version | Snap_expired

(* The certifier's answer, as the client sees it: [Cert_expired] is the
   client's deadline timer, [Unsent] a deadline that passed before the
   request went out. *)
type cert = Verdict of Tracker.verdict | Cert_expired | Unsent

type msg =
  | Snap_request of { item : int; ts : float; gid : int; attempt : int; reply : snap Sim.once }
  | Snap_reply of { snap : snap; reply : snap Sim.once }
  | Certify of { txn : Tracker.txn; reply : cert Sim.once }
  | Cert_reply of { gid : int; verdict : Tracker.verdict; reply : cert Sim.once }

type t = {
  c : Cluster.t;
  net : msg Network.t;
  update_net : Exec.versioned_update Network.t;
  tracker : Tracker.t;
  mv : Mvstore.t array; (* per-site version chains beside the flat stores *)
}

(* Every installed version, at the origin or a replica, also extends the
   site's version chain. *)
let append_version t ~site ~item ~version ~commit_ts =
  Mvstore.append t.mv.(site) ~item ~version ~commit_ts

(* Install a certified transaction at its origin primary. Runs server-side
   (the certifier's replies are FIFO and this site is the single primary of
   everything in [vwrites]), so versions apply in certification order even
   when the waiting client already gave up on its deadline. *)
let apply_commit t ~site ~gid ~commit_ts vwrites =
  Exec.commit_versioned ~on_install:(append_version t) t.c t.update_net ~site ~gid ~commit_ts
    vwrites

let handle t site ~src msg =
  let c = t.c in
  match msg with
  | Snap_request { item; ts; gid; attempt; reply } ->
      Cluster.use_cpu c site c.params.cpu_msg;
      let snap =
        match
          if Store.mem c.stores.(site) item then Mvstore.read_at t.mv.(site) ~item ~ts else None
        with
        | Some v ->
            Cluster.use_cpu c site c.params.cpu_op;
            History.record_versioned c.history ~site ~item ~gid ~attempt ~version:v History.R;
            Version v
        | None -> No_version
      in
      Network.send t.net ~src:site ~dst:src (Snap_reply { snap; reply })
  | Snap_reply { snap; reply } ->
      Cluster.dec_outstanding c;
      ignore (Sim.fire reply snap)
  | Certify { txn; reply } ->
      assert (site = certifier_site);
      Cluster.use_cpu c site (c.params.cpu_msg +. c.params.cpu_op);
      let verdict = Tracker.certify t.tracker ~now:(Sim.now c.sim) txn in
      Cluster.use_cpu c site c.params.cpu_msg;
      Network.send t.net ~src:site ~dst:src (Cert_reply { gid = txn.gid; verdict; reply })
  | Cert_reply { gid; verdict; reply } ->
      Cluster.dec_outstanding c;
      (match verdict with
      | Tracker.Commit { commit_ts; writes } -> apply_commit t ~site ~gid ~commit_ts writes
      | Tracker.Abort _ -> ());
      ignore (Sim.fire reply (Verdict verdict))

let describe_msg = function
  | Snap_request _ -> ("snap-request", 24)
  | Snap_reply _ -> ("snap-reply", 16)
  | Certify { txn; _ } ->
      ("certify", 16 + (12 * (List.length txn.Tracker.reads + List.length txn.Tracker.writes)))
  | Cert_reply _ -> ("cert-reply", 16)

let describe_update (u : Exec.versioned_update) =
  ("ssi-update", 24 + (8 * List.length u.u_writes))

let create (c : Cluster.t) =
  if c.params.heal then
    invalid_arg "Ssi: healing is unsupported (a repair can overtake an in-flight versioned update)";
  let t =
    {
      c;
      net = Cluster.make_net ~describe:describe_msg c;
      update_net = Cluster.make_net ~describe:describe_update c;
      tracker = Tracker.create ();
      mv =
        Array.init c.params.n_sites (fun site ->
            Mvstore.create (Store.items c.stores.(site)));
    }
  in
  for site = 0 to c.params.n_sites - 1 do
    Network.serve t.net site (handle t site);
    Exec.versioned_applier ~on_install:(append_version t) c t.update_net site
  done;
  t

(* Available-copies snapshot read: the local chain could not serve the
   begin-timestamp version (truncated, or the copy arrived after a
   reconfiguration), so ask the other copy sites in placement order,
   skipping crashed or partitioned ones. *)
let remote_snapshot_read t ({ gid; attempt; site; deadline_at } : Exec.primary) ~item ~begin_ts =
  let c = t.c in
  let candidates =
    c.placement.primary.(item) :: Array.to_list c.placement.replicas.(item)
  in
  let rec go answered = function
    | [] -> if answered then `Exhausted else `Unreachable
    | s :: rest when s = site -> go answered rest
    | s :: rest ->
        if (not (Fault_exec.site_up c s)) || not (Network.reachable t.net ~src:site ~dst:s) then
          go answered rest
        else begin
          Cluster.use_cpu c site c.params.cpu_msg;
          if Sim.now c.sim >= deadline_at then `Deadline
          else
            let reply = Sim.once () in
            match
              Exec.request c t.net ~src:site ~dst:s ~deadline:deadline_at ~expired:Snap_expired reply
                (Snap_request { item; ts = begin_ts; gid; attempt; reply })
            with
            | Version v -> `Got v
            | No_version -> go true rest
            | Snap_expired -> `Deadline
        end
  in
  go false candidates

(* Abort on a path where certification will never run for this gid, so the
   registration must be withdrawn here. After the certify message is sent,
   [Tracker.certify] deregisters — even if the client stops waiting. *)
let abort_uncertified t (a : Exec.primary) reason =
  Exec.abort_primary t.c a reason ~cleanup:(fun () -> Tracker.forget t.tracker ~gid:a.gid)

let submit t (spec : Txn.spec) =
  let c = t.c in
  let ({ gid; attempt; site; deadline_at } : Exec.primary) as a =
    Exec.begin_primary c ~site:spec.origin
  in
  let begin_ts = Sim.now c.sim in
  (* Register with the certifier's GC window. Modelled as piggybacked
     metadata (no message): it only bounds what the tracker may forget. *)
  Tracker.begin_txn t.tracker ~gid ~begin_ts;
  let rec run reads = function
    | [] -> Ok (List.rev reads)
    | Txn.Write _ :: rest ->
        Cluster.use_cpu c site c.params.cpu_op;
        run reads rest
    | Txn.Read item :: rest -> (
        Cluster.use_cpu c site c.params.cpu_op;
        match Mvstore.read_at t.mv.(site) ~item ~ts:begin_ts with
        | Some v ->
            History.record_versioned c.history ~site ~item ~gid ~attempt ~version:v History.R;
            run ((item, v) :: reads) rest
        | None -> (
            let t0 = Sim.now c.sim in
            let r = remote_snapshot_read t a ~item ~begin_ts in
            Metrics.span c.metrics ~owner:attempt Span.Prop_wait (Sim.now c.sim -. t0);
            match r with
            | `Got v -> run ((item, v) :: reads) rest
            | `Exhausted ->
                (* No available copy retains the snapshot version. *)
                Error Txn.Validation_failed
            | `Unreachable -> Error Txn.Partitioned
            | `Deadline -> Error Txn.Deadline_exceeded))
  in
  match run [] spec.ops with
  | Error reason -> abort_uncertified t a reason
  | Ok reads -> (
      let writes = Txn.writes spec in
      let txn = { Tracker.gid; begin_ts; reads; writes } in
      if Sim.now c.sim >= deadline_at then abort_uncertified t a Txn.Deadline_exceeded
      else if
        site <> certifier_site && not (Network.reachable t.net ~src:site ~dst:certifier_site)
      then abort_uncertified t a Txn.Partitioned
      else begin
        let t0 = Sim.now c.sim in
        let verdict =
          if site = certifier_site then begin
            Cluster.use_cpu c site c.params.cpu_op;
            let v = Tracker.certify t.tracker ~now:(Sim.now c.sim) txn in
            (match v with
            | Tracker.Commit { commit_ts; writes } -> apply_commit t ~site ~gid ~commit_ts writes
            | Tracker.Abort _ -> ());
            Verdict v
          end
          else begin
            Cluster.use_cpu c site c.params.cpu_msg;
            (* The deadline can pass during the CPU wait; then no Certify
               is sent, and the registration must be withdrawn. *)
            if Sim.now c.sim >= deadline_at then Unsent
            else
              let reply = Sim.once () in
              Exec.request c t.net ~src:site ~dst:certifier_site ~deadline:deadline_at
                ~expired:Cert_expired reply (Certify { txn; reply })
          end
        in
        Metrics.span c.metrics ~owner:attempt Span.Prop_wait (Sim.now c.sim -. t0);
        match verdict with
        | Verdict (Tracker.Commit _) -> Txn.Committed
        | Verdict (Tracker.Abort cause) ->
            let reason =
              match cause with
              | Tracker.Stale_read -> Txn.Validation_failed
              | Tracker.Ww_conflict -> Txn.First_committer_lost
              | Tracker.Dangerous -> Txn.Dangerous_structure
            in
            Exec.abort_primary c a reason
        | Cert_expired ->
            (* The certifier will still process the request; it deregisters
               the gid and a certified winner applies server-side. Only the
               client-side reads are withdrawn. *)
            Exec.abort_primary c a Txn.Deadline_exceeded
        | Unsent -> abort_uncertified t a Txn.Deadline_exceeded
      end)

(* After an epoch switch the placement changed under the version chains:
   drop chains for copies no longer here and seed fresh chains (at the
   switch timestamp) for copies that just arrived by state transfer. Seeded
   chains cannot serve snapshots older than the switch — such reads fall
   back to another copy or abort, they never weaken the snapshot. The
   tracker itself keys by item and survives unchanged. *)
let reconfigure =
  Some
    (fun t ->
      let c = t.c in
      let now = Sim.now c.sim in
      for site = 0 to c.params.n_sites - 1 do
        let mv = t.mv.(site) in
        List.iter
          (fun item -> if not (Placement.has_copy c.placement ~site item) then Mvstore.drop mv ~item)
          (Mvstore.items mv);
        Array.iter
          (fun item ->
            if not (Mvstore.mem mv item) then
              Mvstore.seed mv ~item ~version:(Store.read c.stores.(site) item).Value.version
                ~commit_ts:now)
          (Placement.placed_at c.placement site)
      done)
