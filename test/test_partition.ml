(* Tests for partition tolerance and graceful degradation: BackEdge failing
   fast on unreachable backedge targets, transaction deadlines bounding the
   eager phase, backoff retry riding a partition out (with convergence and
   serializability after the heal), PSL's bounded-staleness read fallback,
   and the partition sweep's byte-identical determinism across repeats and
   domain pools. *)

module Sim = Repdb_sim.Sim
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Fault = Repdb_fault.Fault
module Txn = Repdb_txn.Txn

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let parse spec =
  match Fault.of_string spec with Ok s -> s | Error m -> failwith m

let show_outcome = function
  | None -> "no outcome"
  | Some o -> Fmt.str "%a" Txn.pp_outcome o

(* --- BackEdge under a partition (hand-built two-site cluster) -------------

   Chain tree 0 -> 1; item 0 has its primary at site 1 and a replica at the
   ancestor site 0, so a write at site 1 runs the eager backedge phase
   against site 0. *)

let two_site_cluster ?(deadline = 0.0) spec =
  let params =
    {
      Params.default with
      n_sites = 2;
      n_items = 1;
      latency = 1.0;
      txn_deadline = deadline;
      faults = parse spec;
    }
  in
  let placement = Placement.make ~n_sites:2 ~n_items:1 ~primary:[| 1 |] ~replicas:[| [ 0 ] |] in
  let c = Repdb.Cluster.create_with params placement in
  (c, Repdb.Backedge_proto.create c)

let test_backedge_fail_fast () =
  (* The partition is active at submit time: the write's backedge target is
     unreachable, so the primary aborts with Partitioned immediately instead
     of parking in its lock table; after the heal the same write commits. *)
  let c, t = two_site_cluster "partition@0-1000:groups=0|1" in
  let first = ref None and first_at = ref nan in
  let second = ref None in
  Sim.spawn c.sim (fun () ->
      first := Some (Repdb.Backedge_proto.submit t { Txn.origin = 1; ops = [ Txn.Write 0 ] });
      first_at := Sim.now c.sim);
  Sim.spawn c.sim (fun () ->
      Sim.delay 1500.0;
      second := Some (Repdb.Backedge_proto.submit t { Txn.origin = 1; ops = [ Txn.Write 0 ] }));
  Sim.run c.sim;
  (match !first with
  | Some (Txn.Aborted Txn.Partitioned) -> ()
  | o -> Alcotest.failf "expected Aborted partitioned, got %s" (show_outcome o));
  checkb "aborted before the heal" true (!first_at < 1000.0);
  match !second with
  | Some Txn.Committed -> ()
  | o -> Alcotest.failf "after heal: expected Committed, got %s" (show_outcome o)

let test_backedge_deadline_exceeded () =
  (* The partition begins after the Exec_request departs, trapping the
     returning special subtransaction until t = 2000; the 50 ms transaction
     deadline converts the parked origin wait into a clean abort long before
     the heal. *)
  let c, t = two_site_cluster ~deadline:50.0 "partition@1-2000:groups=0|1" in
  let outcome = ref None and at = ref nan in
  Sim.spawn c.sim (fun () ->
      outcome := Some (Repdb.Backedge_proto.submit t { Txn.origin = 1; ops = [ Txn.Write 0 ] });
      at := Sim.now c.sim);
  Sim.run c.sim;
  (match !outcome with
  | Some (Txn.Aborted Txn.Deadline_exceeded) -> ()
  | o -> Alcotest.failf "expected Aborted deadline-exceeded, got %s" (show_outcome o));
  checkb "aborted at the deadline" true (!at >= 50.0 && !at < 60.0);
  checkb "well before the heal" true (!at < 2000.0)

(* --- full runs: retry rides the partition out ----------------------------- *)

let partition_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 40;
    threads_per_site = 2;
    txns_per_thread = 20;
    record_history = true;
    txn_deadline = 200.0;
    retry = Params.default_backoff;
    faults = parse "partition@100-600:groups=0.1|2.3";
  }

let test_heal_converges_serializable () =
  (* Every protocol must ride the split out under deadlines + backoff retry:
     replicas converge after the heal and the recorded history stays
     serializable. *)
  List.iter
    (fun (name, protocol, backedge_prob) ->
      let params = { partition_params with Params.backedge_prob } in
      let r = Repdb.Driver.run params protocol in
      checki (name ^ ": partition window ran") 1 r.partitions;
      let module P = (val protocol : Repdb.Protocol.S) in
      (match r.divergent with
      | Some [] -> ()
      | Some d -> Alcotest.failf "%s: %d divergent copies after heal" name (List.length d)
      | None -> if P.updates_replicas then Alcotest.failf "%s: no convergence check ran" name);
      match r.serializability with
      | Some Repdb_txn.Serializability.Serializable -> ()
      | Some _ -> Alcotest.failf "%s: history not serializable under partition" name
      | None -> Alcotest.failf "%s: no serializability verdict" name)
    [
      ("backedge", (module Repdb.Backedge_proto : Repdb.Protocol.S), 0.2);
      ("dag-wt", (module Repdb.Dag_wt : Repdb.Protocol.S), 0.0);
      ("psl", (module Repdb.Psl : Repdb.Protocol.S), 0.2);
    ]

let test_psl_stale_reads () =
  (* With the bounded-staleness fallback on, PSL serves reads of partitioned
     primaries from the local replica during the split, and records per-read
     staleness within the bound. *)
  let bound = 60_000.0 in
  let params = { partition_params with Params.backedge_prob = 0.2; stale_reads = bound } in
  let r = Repdb.Driver.run params (module Repdb.Psl : Repdb.Protocol.S) in
  checkb "stale reads served during the split" true (r.summary.stale_reads > 0);
  checkb "staleness recorded" true (r.summary.max_staleness > 0.0);
  checkb "staleness within the bound" true (r.summary.max_staleness <= bound);
  checkb "avg <= max" true (r.summary.avg_staleness <= r.summary.max_staleness);
  match r.serializability with
  | Some Repdb_txn.Serializability.Serializable -> ()
  | Some _ -> Alcotest.fail "psl: locked-read history not serializable"
  | None -> Alcotest.fail "psl: no serializability verdict"

let test_availability_metrics () =
  (* The goodput/abort timeline must cover the run and the unavailability
     accounting must be internally consistent. *)
  let params = { partition_params with Params.backedge_prob = 0.2 } in
  let r = Repdb.Driver.run params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  checkb "timeline recorded" true (r.summary.timeline <> []);
  let commits = List.fold_left (fun acc (_, c, _) -> acc + c) 0 r.summary.timeline in
  let aborts = List.fold_left (fun acc (_, _, a) -> acc + a) 0 r.summary.timeline in
  checki "timeline commits match" r.summary.commits commits;
  checki "timeline aborts match" r.summary.aborts aborts;
  checkb "windows imply unavailable time"
    (r.summary.unavail_windows > 0)
    (r.summary.unavail_ms > 0.0)

(* --- determinism of the partition sweep ----------------------------------- *)

let test_sweep_csv_identical () =
  (* Acceptance: the partition sweep's CSV is byte-identical across repeats
     and across -j levels (backoff jitter comes from per-client seeded
     streams, so parallel interleaving cannot leak in). *)
  let base =
    { Params.default with n_sites = 4; n_items = 24; threads_per_site = 1; txns_per_thread = 6 }
  in
  let seq = Experiments.output "partition" base in
  checks "identical across repeats" seq
    (Experiments.output "partition" base);
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        Experiments.output ~pool "partition" base)
  in
  checks "identical across -j levels" seq par;
  checkb "new columns present" true
    (String.length seq > 0
    &&
    let header = List.hd (String.split_on_char '\n' seq) in
    List.for_all
      (fun col ->
        List.mem col (String.split_on_char ',' header))
      [
        "aborts_deadline_exceeded";
        "aborts_partitioned";
        "aborts_validation_failed";
        "aborts_dangerous_structure";
        "stale_reads";
        "max_staleness_ms";
        "unavail_ms";
      ])

let () =
  Alcotest.run "partition"
    [
      ( "backedge",
        [
          Alcotest.test_case "fail fast on unreachable target" `Quick test_backedge_fail_fast;
          Alcotest.test_case "deadline bounds the parked wait" `Quick
            test_backedge_deadline_exceeded;
        ] );
      ( "heal",
        [
          Alcotest.test_case "converges and serializable" `Quick test_heal_converges_serializable;
          Alcotest.test_case "psl stale reads" `Quick test_psl_stale_reads;
          Alcotest.test_case "availability metrics" `Quick test_availability_metrics;
        ] );
      ( "determinism",
        [ Alcotest.test_case "sweep csv identical" `Quick test_sweep_csv_identical ] );
    ]
