(* End-to-end integration tests: full driver runs for every protocol on
   randomized small workloads, checking serializability, convergence,
   quiescence, metric accounting and determinism. *)

module Txn = Repdb_txn.Txn
module Serializability = Repdb_txn.Serializability
module Params = Repdb_workload.Params
module Driver = Repdb.Driver
module Protocol = Repdb.Protocol

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small_params ?(seed = 1) ?(b = 0.0) ?(r = 0.3) ?(m = 4) () =
  {
    Params.default with
    n_sites = m;
    n_items = 24;
    replication_prob = r;
    backedge_prob = b;
    threads_per_site = 2;
    txns_per_thread = 12;
    record_history = true;
    seed;
  }

let is_serializable (r : Driver.report) =
  match r.serializability with
  | Some Serializability.Serializable -> true
  | Some (Serializability.Not_serializable _) -> false
  | None -> Alcotest.fail "history was not recorded"

let converged (r : Driver.report) =
  match r.divergent with Some [] -> true | Some _ -> false | None -> true

let check_accounting params (r : Driver.report) =
  let total = params.Params.n_sites * params.threads_per_site * params.txns_per_thread in
  checki "every attempt accounted" total (r.summary.commits + r.summary.aborts);
  checkb "responses non-negative" true (r.summary.avg_response >= 0.0);
  checkb "duration positive" true (r.summary.duration > 0.0)

(* DAG-only protocols run with b = 0 over many seeds. *)
let test_dag_protocols_randomized () =
  List.iter
    (fun proto ->
      for seed = 1 to 8 do
        let params = small_params ~seed () in
        let r = Driver.run params proto in
        checkb (Protocol.name proto ^ " serializable") true (is_serializable r);
        checkb (Protocol.name proto ^ " converged") true (converged r);
        check_accounting params r
      done)
    [ (module Repdb.Dag_wt : Protocol.S); (module Repdb.Dag_t : Protocol.S);
      Repdb.Registry.dag_t_pipelined ]

(* Cyclic-graph-safe protocols run with random backedge probabilities. *)
let test_cyclic_protocols_randomized () =
  List.iter
    (fun proto ->
      for seed = 1 to 8 do
        let b = float_of_int (seed mod 5) /. 4.0 in
        let params = small_params ~seed ~b ~r:0.4 () in
        let r = Driver.run params proto in
        checkb (Protocol.name proto ^ " serializable") true (is_serializable r);
        checkb (Protocol.name proto ^ " converged") true (converged r);
        check_accounting params r
      done)
    [ (module Repdb.Backedge_proto : Protocol.S); Repdb.Registry.backedge_general;
      (module Repdb.Psl : Protocol.S); (module Repdb.Lazy_master : Protocol.S);
      (module Repdb.Central : Protocol.S); (module Repdb.Eager : Protocol.S) ]

(* Indiscriminate propagation must eventually produce a violation. *)
let test_naive_violates_somewhere () =
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 10 do
    incr seed;
    let params =
      { (small_params ~seed:!seed ~r:0.5 ()) with Params.txns_per_thread = 40; threads_per_site = 3 }
    in
    let r = Driver.run params (module Repdb.Naive) in
    if not (is_serializable r) then found := true
  done;
  checkb "violation found within 10 seeds" true !found;
  (* But replicas still converge even for naive. *)
  let r = Driver.run (small_params ~seed:3 ~r:0.5 ()) (module Repdb.Naive) in
  checkb "naive converges" true (converged r)

let test_backedge_equals_dag_wt_on_dags () =
  (* Section 4: "if the copy graph is a DAG ... the BackEdge protocol reduces
     to the DAG(WT) protocol". With the same chain tree the two must produce
     bit-identical runs. *)
  let params = { (small_params ~seed:9 ()) with Params.n_sites = 4 } in
  (* DAG(WT) picks Tree.of_dag; force both onto the identity chain by running
     BackEdge (always the chain) against Dag_wt on a chain tree. *)
  let run_backedge () = Driver.run params (module Repdb.Backedge_proto) in
  let run_dag_wt () =
    let c = Repdb.Cluster.create params in
    let chain = Repdb_graph.Tree.chain_of_order (Array.init params.Params.n_sites Fun.id) in
    let module Chain_wt = struct
      type t = Repdb.Dag_wt.t

      let name = "dag-wt"
      let updates_replicas = true
      let create c = Repdb.Dag_wt.create_with_tree c chain
      let submit = Repdb.Dag_wt.submit
      let reconfigure = Repdb.Dag_wt.reconfigure
    end in
    Driver.run_on c (module Chain_wt)
  in
  let be = run_backedge () and wt = run_dag_wt () in
  checki "same commits" wt.summary.commits be.summary.commits;
  checki "same aborts" wt.summary.aborts be.summary.aborts;
  checkb "same duration" true (wt.summary.duration = be.summary.duration);
  checkb "same propagation" true (wt.summary.avg_propagation = be.summary.avg_propagation)

let test_determinism () =
  let params = small_params ~seed:5 ~b:0.3 ~r:0.4 () in
  let r1 = Driver.run params (module Repdb.Backedge_proto) in
  let r2 = Driver.run params (module Repdb.Backedge_proto) in
  checki "same commits" r1.summary.commits r2.summary.commits;
  checki "same aborts" r1.summary.aborts r2.summary.aborts;
  checki "same messages" r1.summary.messages r2.summary.messages;
  checkb "same sim time" true (r1.sim_time = r2.sim_time);
  checki "same events" r1.sim_events r2.sim_events

let test_seed_changes_run () =
  let r1 = Driver.run (small_params ~seed:1 ()) (module Repdb.Dag_wt) in
  let r2 = Driver.run (small_params ~seed:2 ()) (module Repdb.Dag_wt) in
  checkb "different seeds differ" true (r1.sim_events <> r2.sim_events)

let test_retry_mode () =
  (* With retries on, every logical transaction eventually commits. *)
  let params = { (small_params ~seed:4 ~b:0.5 ~r:0.5 ()) with Params.retry = Params.default_backoff } in
  let r = Driver.run params (module Repdb.Backedge_proto) in
  let total = params.Params.n_sites * params.threads_per_site * params.txns_per_thread in
  checki "all logical txns commit" total r.summary.commits;
  checkb "still serializable" true (is_serializable r)

let test_report_fields () =
  let params = small_params ~seed:6 ~b:0.5 ~r:0.5 () in
  let r = Driver.run params (module Repdb.Backedge_proto) in
  checkb "copy graph has edges" true (r.copy_graph_edges > 0);
  checkb "backedges present at b=0.5" true (r.n_backedges > 0);
  checkb "replicas counted" true (r.n_replicas > 0);
  checkb "lock stats recorded" true (r.lock_stats.acquires > 0);
  checkb "events executed" true (r.sim_events > 0);
  Alcotest.(check string) "protocol name" "backedge" r.protocol

(* [sim_time] is the quiescence instant: no earlier than the last client's
   finish, and far short of the run's horizon (at least 120 s), which it
   read before the quiescence instant was recorded. *)
let test_sim_time_is_quiescence () =
  let params = { Params.default with backedge_prob = 0.0; txns_per_thread = 5 } in
  let r = Driver.run params (module Repdb.Dag_wt) in
  checkb "clients finished" true (r.summary.duration > 0.0);
  checkb "sim_time >= duration" true (r.summary.duration <= r.sim_time);
  checkb "sim_time < horizon" true (r.sim_time < 120_000.0)

let test_read_only_workload_no_messages () =
  (* All-read workloads never propagate anything under the lazy protocols. *)
  let params = { (small_params ~seed:7 ()) with Params.read_txn_prob = 1.0 } in
  List.iter
    (fun proto ->
      let r = Driver.run params proto in
      checki (Protocol.name proto ^ " aborts") 0 r.summary.aborts;
      checkb
        (Protocol.name proto ^ " no real propagation")
        true
        (r.summary.n_propagations = 0))
    [ (module Repdb.Dag_wt : Protocol.S); (module Repdb.Naive : Protocol.S) ]

let test_single_site_degenerates () =
  (* m = 1: no replication, no messages, everything commits locally. *)
  let params = { (small_params ~m:1 ~r:0.0 ()) with Params.n_machines = 1 } in
  List.iter
    (fun proto ->
      let r = Driver.run params proto in
      checki (Protocol.name proto ^ " no messages") 0 r.summary.messages;
      checkb (Protocol.name proto ^ " serializable") true (is_serializable r))
    Repdb.Registry.all

let test_metrics_throughput_consistency () =
  let params = small_params ~seed:8 () in
  let r = Driver.run params (module Repdb.Dag_wt) in
  let expected = float_of_int r.summary.commits /. (r.summary.duration /. 1000.0) in
  Alcotest.(check (float 1e-6)) "throughput formula" expected r.summary.throughput;
  Alcotest.(check (float 1e-6))
    "per-site split" (expected /. float_of_int params.Params.n_sites)
    r.summary.throughput_per_site

let test_registry () =
  checki "ten protocols" 10 (List.length Repdb.Registry.all);
  checki "eight cyclic safe" 8 (List.length Repdb.Registry.cyclic_safe);
  checkb "find psl" true (Repdb.Registry.find "psl" <> None);
  checkb "find general variant" true (Repdb.Registry.find "backedge-gen" <> None);
  checkb "find pipelined dag-t" true (Repdb.Registry.find "dag-t-mc" <> None);
  checkb "find unknown" true (Repdb.Registry.find "nonesuch" = None);
  Alcotest.(check (list string))
    "names"
    [ "dag-wt"; "dag-t"; "backedge"; "psl"; "lazy-master"; "central"; "eager"; "naive";
      "occ-epoch"; "ssi"; "backedge-gen"; "dag-t-mc" ]
    Repdb.Registry.names

let () =
  Alcotest.run "integration"
    [
      ( "randomized",
        [
          Alcotest.test_case "dag protocols" `Slow test_dag_protocols_randomized;
          Alcotest.test_case "cyclic protocols" `Slow test_cyclic_protocols_randomized;
          Alcotest.test_case "naive violates" `Slow test_naive_violates_somewhere;
        ] );
      ( "driver",
        [
          Alcotest.test_case "backedge = dag-wt on DAGs" `Quick test_backedge_equals_dag_wt_on_dags;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_run;
          Alcotest.test_case "retry mode" `Quick test_retry_mode;
          Alcotest.test_case "report fields" `Quick test_report_fields;
          Alcotest.test_case "sim_time is quiescence" `Quick test_sim_time_is_quiescence;
          Alcotest.test_case "read-only workload" `Quick test_read_only_workload_no_messages;
          Alcotest.test_case "single site" `Quick test_single_site_degenerates;
          Alcotest.test_case "metrics consistency" `Quick test_metrics_throughput_consistency;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
    ]
