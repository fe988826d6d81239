module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
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

type msg =
  | Snap_request of {
      item : int;
      ts : float;
      gid : int;
      attempt : int;
      reply : int option -> unit;
    }
  | Snap_reply of { version : int option; deliver : int option -> unit }
  | Certify of { txn : Tracker.txn; reply : Tracker.verdict -> unit }
  | Cert_reply of { gid : int; verdict : Tracker.verdict; deliver : Tracker.verdict -> unit }

type t = {
  c : Cluster.t;
  net : msg Network.t;
  update_net : Exec.versioned_update Network.t;
  tracker : Tracker.t;
  mv : Mvstore.t array; (* per-site version chains beside the flat stores *)
  mutable remote : int;
}

(* Remote (available-copies) snapshot reads performed so far. *)
let remote_reads t = t.remote

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

let server t site =
  let c = t.c in
  let inbox = Network.inbox t.net site in
  let rec loop () =
    let src, msg = Mailbox.recv inbox in
    (match msg with
    | Snap_request { item; ts; gid; attempt; reply } ->
        Cluster.use_cpu c site c.params.cpu_msg;
        let version =
          if Store.mem c.stores.(site) item then Mvstore.read_at t.mv.(site) ~item ~ts
          else None
        in
        (match version with
        | Some v ->
            Cluster.use_cpu c site c.params.cpu_op;
            History.record c.history ~site ~item ~gid ~attempt ~version:v History.R
        | None -> ());
        Network.send t.net ~src:site ~dst:src (Snap_reply { version; deliver = reply })
    | Snap_reply { version; deliver } ->
        Cluster.dec_outstanding c;
        deliver version
    | Certify { txn; reply } ->
        assert (site = certifier_site);
        Cluster.use_cpu c site (c.params.cpu_msg +. c.params.cpu_op);
        let verdict = Tracker.certify t.tracker ~now:(Sim.now c.sim) txn in
        Cluster.use_cpu c site c.params.cpu_msg;
        Network.send t.net ~src:site ~dst:src (Cert_reply { gid = txn.gid; verdict; deliver = reply })
    | Cert_reply { gid; verdict; deliver } ->
        Cluster.dec_outstanding c;
        (match verdict with
        | Tracker.Commit { commit_ts; writes } -> apply_commit t ~site ~gid ~commit_ts writes
        | Tracker.Abort _ -> ());
        deliver verdict);
    loop ()
  in
  loop ()

let describe_msg = function
  | Snap_request _ -> ("snap-request", 24)
  | Snap_reply _ -> ("snap-reply", 16)
  | Certify { txn; _ } ->
      ("certify", 16 + (12 * (List.length txn.Tracker.reads + List.length txn.Tracker.writes)))
  | Cert_reply _ -> ("cert-reply", 16)

let describe_update (u : Exec.versioned_update) =
  ("ssi-update", 24 + (8 * List.length u.u_writes))

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net ~describe:describe_msg c;
      update_net = Cluster.make_net ~describe:describe_update c;
      tracker = Tracker.create ();
      mv =
        Array.init c.params.n_sites (fun site ->
            Mvstore.create (Store.items c.stores.(site)));
      remote = 0;
    }
  in
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> server t site);
    Sim.spawn ~cat c.sim (fun () ->
        Exec.versioned_applier ~on_install:(append_version t) c t.update_net site)
  done;
  t

(* Available-copies snapshot read: the local chain could not serve the
   begin-timestamp version (truncated, or the copy arrived after a
   reconfiguration), so ask the other copy sites in placement order,
   skipping crashed or partitioned ones. *)
let remote_snapshot_read t ~site ~item ~begin_ts ~gid ~attempt ~deadline_at =
  let c = t.c in
  let candidates =
    c.placement.primary.(item) :: Array.to_list c.placement.replicas.(item)
  in
  let rec go answered = function
    | [] -> if answered then `Exhausted else `Unreachable
    | s :: rest when s = site -> go answered rest
    | s :: rest ->
        if (not (Cluster.site_up c s)) || not (Network.reachable t.net ~src:site ~dst:s) then
          go answered rest
        else begin
          t.remote <- t.remote + 1;
          Cluster.use_cpu c site c.params.cpu_msg;
          if Sim.now c.sim >= deadline_at then `Deadline
          else begin
            let reply =
              Sim.suspend (fun resume ->
                  Cluster.inc_outstanding c;
                  if deadline_at < infinity then
                    Sim.at c.sim deadline_at (fun () -> resume `Deadline);
                  Network.send t.net ~src:site ~dst:s
                    (Snap_request
                       { item; ts = begin_ts; gid; attempt; reply = (fun v -> resume (`V v)) }))
            in
            match reply with
            | `V (Some v) -> `Got v
            | `V None -> go true rest
            | `Deadline -> `Deadline
          end
        end
  in
  go false candidates

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let deadline_at = Cluster.deadline_at c in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  let begin_ts = Sim.now c.sim in
  (* Register with the certifier's GC window. Modelled as piggybacked
     metadata (no message): it only bounds what the tracker may forget. *)
  Tracker.begin_txn t.tracker ~gid ~begin_ts;
  (* Abort on a path where certification will never run for this gid, so the
     registration must be withdrawn here. After the certify message is sent,
     [Tracker.certify] deregisters — even if the client stops waiting. *)
  let abort reason =
    Tracker.forget t.tracker ~gid;
    History.discard_attempt c.history ~attempt;
    Metrics.txn_abort c.metrics ~gid ~site reason;
    Txn.Aborted reason
  in
  let rec run reads = function
    | [] -> Ok (List.rev reads)
    | Txn.Write _ :: rest ->
        Cluster.use_cpu c site c.params.cpu_op;
        run reads rest
    | Txn.Read item :: rest -> (
        Cluster.use_cpu c site c.params.cpu_op;
        match Mvstore.read_at t.mv.(site) ~item ~ts:begin_ts with
        | Some v ->
            History.record c.history ~site ~item ~gid ~attempt ~version:v History.R;
            run ((item, v) :: reads) rest
        | None -> (
            let t0 = Sim.now c.sim in
            let r = remote_snapshot_read t ~site ~item ~begin_ts ~gid ~attempt ~deadline_at in
            Metrics.span c.metrics ~owner:attempt Span.Prop_wait (Sim.now c.sim -. t0);
            match r with
            | `Got v -> run ((item, v) :: reads) rest
            | `Exhausted ->
                (* No available copy retains the snapshot version. *)
                Error Txn.Validation_failed
            | `Unreachable -> Error Txn.Partitioned
            | `Deadline ->
                Metrics.deadline c.metrics ~gid ~site;
                Error Txn.Deadline_exceeded))
  in
  match run [] spec.ops with
  | Error reason -> abort reason
  | Ok reads -> (
      let writes = List.sort_uniq compare (Txn.writes spec) in
      let txn = { Tracker.gid; begin_ts; reads; writes } in
      if Sim.now c.sim >= deadline_at then begin
        Metrics.deadline c.metrics ~gid ~site;
        abort Txn.Deadline_exceeded
      end
      else if
        site <> certifier_site && not (Network.reachable t.net ~src:site ~dst:certifier_site)
      then abort Txn.Partitioned
      else begin
        let t0 = Sim.now c.sim in
        let verdict =
          if site = certifier_site then begin
            Cluster.use_cpu c site c.params.cpu_op;
            let v = Tracker.certify t.tracker ~now:(Sim.now c.sim) txn in
            (match v with
            | Tracker.Commit { commit_ts; writes } -> apply_commit t ~site ~gid ~commit_ts writes
            | Tracker.Abort _ -> ());
            `Verdict v
          end
          else begin
            Cluster.use_cpu c site c.params.cpu_msg;
            Sim.suspend (fun resume ->
                Cluster.inc_outstanding c;
                if deadline_at < infinity then
                  Sim.at c.sim deadline_at (fun () -> resume `Deadline);
                Network.send t.net ~src:site ~dst:certifier_site
                  (Certify { txn; reply = (fun v -> resume (`Verdict v)) }))
          end
        in
        Metrics.span c.metrics ~owner:attempt Span.Prop_wait (Sim.now c.sim -. t0);
        match verdict with
        | `Verdict (Tracker.Commit _) -> Txn.Committed
        | `Verdict (Tracker.Abort cause) ->
            let reason =
              match cause with
              | Tracker.Stale_read -> Txn.Validation_failed
              | Tracker.Ww_conflict -> Txn.First_committer_lost
              | Tracker.Dangerous -> Txn.Dangerous_structure
            in
            History.discard_attempt c.history ~attempt;
            Metrics.txn_abort c.metrics ~gid ~site reason;
            Txn.Aborted reason
        | `Deadline ->
            (* The certifier will still process the request; it deregisters
               the gid and a certified winner applies server-side. Only the
               client-side reads are withdrawn. *)
            Metrics.deadline c.metrics ~gid ~site;
            History.discard_attempt c.history ~attempt;
            Metrics.txn_abort c.metrics ~gid ~site Txn.Deadline_exceeded;
            Txn.Aborted Txn.Deadline_exceeded
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
