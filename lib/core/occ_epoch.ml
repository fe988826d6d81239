module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn
module Validator = Repdb_occ.Validator
module Span = Repdb_obs.Span

let name = "occ-epoch"
let updates_replicas = true

let validator_site = 0

type pending = {
  gid : int;
  reads : (int * int) list;
  writes : int list;
  deliver : [ `Committed | `Validation_failed | `Deadline ] -> unit;
}

type msg =
  | Batch of { epoch : int; txns : pending list }
  | Verdicts of { epoch : int; results : (pending * (int * int) list option) list }

type t = {
  c : Cluster.t;
  net : msg Network.t;
  update_net : Exec.versioned_update Network.t;
  validator : Validator.t;
  queues : pending list ref array; (* per site, reversed arrival order *)
}

let validated t = Validator.validated t.validator
let rejected t = Validator.rejected t.validator

(* Certified writes are applied at the origin primary by the server, not the
   waiting client: a client whose deadline fired mid-epoch has already been
   resumed (resumption is one-shot — its late verdict is ignored), but the
   batch was validated and the versions assigned, so the system must install
   the writes regardless. Lazy propagation follows; per-item streams are
   FIFO from the primary, so replicas apply in validation order. *)
let apply_verdicts t ~site results =
  List.iter
    (fun (p, verdict) ->
      match verdict with
      | None -> p.deliver `Validation_failed
      | Some vwrites ->
          Exec.commit_versioned t.c t.update_net ~site ~gid:p.gid ~commit_ts:0.0 vwrites;
          p.deliver `Committed)
    results

(* Validate one site's epoch batch in arrival order. One message receipt plus
   one validation slot per transaction is charged to the validator site — the
   epoch batch amortizes the per-transaction round trip that makes [central]
   a bottleneck. *)
let serve_batch t ~src txns =
  let c = t.c in
  Cluster.use_cpu c validator_site
    (c.params.cpu_msg +. (float_of_int (List.length txns) *. c.params.cpu_op));
  let results =
    List.map
      (fun p ->
        (p, Validator.validate t.validator { gid = p.gid; reads = p.reads; writes = p.writes }))
      txns
  in
  if src = validator_site then apply_verdicts t ~site:src results
  else begin
    Cluster.use_cpu c validator_site c.params.cpu_msg;
    Network.send t.net ~src:validator_site ~dst:src
      (Verdicts { epoch = Epoch.current c; results })
  end

(* Per-site server: the validator site serves batches, every site applies its
   own verdicts. Processing blocks the loop on purpose — arrival order is
   validation order is apply order. *)
let server t site =
  let c = t.c in
  let inbox = Network.inbox t.net site in
  let rec loop () =
    let src, msg = Mailbox.recv inbox in
    (match msg with
    | Batch { epoch; txns } ->
        assert (site = validator_site);
        assert (epoch = Epoch.current c);
        serve_batch t ~src txns
    | Verdicts { epoch; results } ->
        Cluster.dec_outstanding c;
        assert (epoch = Epoch.current c);
        apply_verdicts t ~site results);
    loop ()
  in
  loop ()

(* Flush a site's buffered transactions as one batch to the validator. Runs
   in its own process (CPU waits block); the validator site validates its own
   batch by direct call — there is no self-loop in the network. *)
let flush t site =
  let c = t.c in
  let batch = List.rev !(t.queues.(site)) in
  t.queues.(site) := [];
  if batch <> [] then
    if site = validator_site then serve_batch t ~src:site batch
    else begin
      Cluster.use_cpu c site c.params.cpu_msg;
      Cluster.inc_outstanding c;
      Network.send t.net ~src:site ~dst:validator_site
        (Batch { epoch = Epoch.current c; txns = batch })
    end

let describe_msg = function
  | Batch { txns; _ } -> ("occ-batch", 16 + (24 * List.length txns))
  | Verdicts { results; _ } -> ("occ-verdicts", 16 + (8 * List.length results))

let describe_update (u : Exec.versioned_update) =
  ("occ-update", 16 + (8 * List.length u.u_writes))

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net ~describe:describe_msg c;
      update_net = Cluster.make_net ~describe:describe_update c;
      validator = Validator.create ();
      queues = Array.init c.params.n_sites (fun _ -> ref []);
    }
  in
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    Sim.spawn ~cat c.sim (fun () -> server t site);
    Sim.spawn ~cat c.sim (fun () -> Exec.versioned_applier c t.update_net site)
  done;
  (* Epoch boundaries are global instants (k * occ_epoch_ms): every site
     flushes at the same boundary, in site order. The ticker keeps firing
     while a reconfiguration drains — queued transactions must still reach
     the validator for the drain to complete. *)
  let period = c.params.occ_epoch_ms in
  for site = 0 to c.params.n_sites - 1 do
    let rec tick at =
      Sim.at c.sim at (fun () ->
          if not c.stopped then begin
            if !(t.queues.(site)) <> [] then Sim.spawn c.sim (fun () -> flush t site);
            tick (at +. period)
          end)
    in
    tick period
  done;
  t

let submit t (spec : Txn.spec) =
  let c = t.c in
  let site = spec.origin in
  let deadline_at = Cluster.deadline_at c in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Metrics.txn_begin c.metrics ~gid ~attempt ~site;
  (* Optimistic local execution: no locks. Reads capture the version
     observed (the validation evidence), writes are buffered. *)
  let reads = ref [] in
  List.iter
    (fun op ->
      Cluster.use_cpu c site c.params.cpu_op;
      match op with
      | Txn.Read item ->
          let v = Store.read c.stores.(site) item in
          reads := (item, v.Value.version) :: !reads;
          History.record c.history ~site ~item ~gid ~attempt ~version:v.Value.version History.R
      | Txn.Write _ -> ())
    spec.ops;
  let reads = List.rev !reads in
  let writes = List.sort_uniq compare (Txn.writes spec) in
  let abort reason =
    History.discard_attempt c.history ~attempt;
    Metrics.txn_abort c.metrics ~gid ~site reason;
    Txn.Aborted reason
  in
  if Sim.now c.sim >= deadline_at then begin
    Metrics.deadline c.metrics ~gid ~site;
    abort Txn.Deadline_exceeded
  end
  else if
    site <> validator_site && not (Network.reachable t.net ~src:site ~dst:validator_site)
  then
    (* Fail fast instead of parking a batch against a partition. *)
    abort Txn.Partitioned
  else begin
    let t0 = Sim.now c.sim in
    let outcome =
      Sim.suspend (fun resume ->
          t.queues.(site) := { gid; reads; writes; deliver = resume } :: !(t.queues.(site));
          if deadline_at < infinity then
            Sim.at c.sim deadline_at (fun () ->
                (* Still buffered: withdraw, the validator never saw it. Once
                   flushed the system decides — a late verdict is ignored by
                   the one-shot resume and winners apply server-side. *)
                t.queues.(site) := List.filter (fun p -> p.gid <> gid) !(t.queues.(site));
                resume `Deadline))
    in
    Metrics.span c.metrics ~owner:attempt Span.Prop_wait (Sim.now c.sim -. t0);
    match outcome with
    | `Committed -> Txn.Committed
    | `Validation_failed -> abort Txn.Validation_failed
    | `Deadline ->
        Metrics.deadline c.metrics ~gid ~site;
        abort Txn.Deadline_exceeded
  end

(* The cluster drains (no active transactions, nothing in flight) before a
   switch, so no batch is buffered or travelling; the validator's table keys
   by item and state transfer preserves versions, so it still matches every
   store. Nothing to rebuild — assert the invariant instead. *)
let reconfigure = Some (fun t -> Array.iter (fun q -> assert (!q = [])) t.queues)
