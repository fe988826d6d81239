(* Unit tests for the core support modules: metrics, convergence, exec,
   routing, cluster accounting and the experiment plumbing. *)

module Sim = Repdb_sim.Sim
module Store = Repdb_store.Store
module Txn = Repdb_txn.Txn
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Tree = Repdb_graph.Tree
module Cluster = Repdb.Cluster
module Metrics = Repdb.Metrics
module Exec = Repdb.Exec

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- metrics ------------------------------------------------------------- *)

(* A bare Metrics over an [n_sites] registry whose "msg.sent" counter holds
   [sent]; outcomes land at simulated time 0. *)
let metrics ?(n_sites = 1) ?(sent = 0) () =
  let stats = Repdb_obs.Stats.create ~n_sites () in
  if sent > 0 then Repdb_obs.Stats.add (Repdb_obs.Stats.counter stats "msg.sent") ~site:0 sent;
  Metrics.create stats

let commit m ~site ~response = Metrics.outcome m ~site ~response Txn.Committed
let abort m ~site reason = Metrics.outcome m ~site ~response:0.0 (Txn.Aborted reason)

let test_metrics_counts () =
  let m = metrics ~n_sites:2 ~sent:7 () in
  commit m ~site:0 ~response:10.0;
  commit m ~site:0 ~response:20.0;
  abort m ~site:0 Txn.Lock_timeout;
  abort m ~site:0 Txn.Lock_timeout;
  abort m ~site:0 Txn.Deadlock;
  Metrics.propagation m ~gid:1 ~site:0 ~delay:5.0;
  Metrics.client_done m ~time:1000.0;
  let s = Metrics.summary m in
  checki "commits" 2 s.commits;
  checki "aborts" 3 s.aborts;
  checkf "abort rate" 60.0 s.abort_rate;
  checkf "avg response" 15.0 s.avg_response;
  checkf "avg propagation" 5.0 s.avg_propagation;
  checkf "throughput" 2.0 s.throughput;
  checkf "per site" 1.0 s.throughput_per_site;
  checki "messages" 7 s.messages;
  Alcotest.(check (list (pair Alcotest.reject int)))
    "reason counts" []
    (List.map (fun (_, n) -> ((), n)) s.aborts_by_reason |> List.filter (fun _ -> false));
  checki "two reasons" 2 (List.length s.aborts_by_reason);
  checkb "lock-timeout counted twice" true (List.mem (Txn.Lock_timeout, 2) s.aborts_by_reason)

let test_metrics_percentiles () =
  let m = metrics () in
  for i = 1 to 100 do
    commit m ~site:0 ~response:(float_of_int i)
  done;
  Metrics.client_done m ~time:100.0;
  let s = Metrics.summary m in
  (* Nearest-rank: of 1..100, pXX is exactly XX. *)
  checkf "p50" 50.0 s.p50_response;
  checkf "p95" 95.0 s.p95_response;
  checkf "p99" 99.0 s.p99_response

let test_metrics_percentile_nearest_rank () =
  (* The regression the truncating index had: p50 of an even-sized sample
     must be the lower middle element, not the upper. *)
  checkf "p50 of [1;2;3;4]" 2.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.5);
  checkf "p25 of [1;2;3;4]" 1.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.25);
  checkf "p100" 4.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 1.0);
  checkf "p0 clamps to first" 1.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.0);
  checkf "empty" 0.0 (Metrics.percentile [||] 0.5)

let test_metrics_stats_percentiles_agree () =
  (* The two percentile implementations must give the same answer when the
     histogram buckets resolve every sample exactly. *)
  let samples = Array.init 40 (fun i -> float_of_int (1 + (i mod 10))) in
  let stats = Repdb_obs.Stats.create ~n_sites:1 () in
  let buckets = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let h = Repdb_obs.Stats.histogram ~buckets stats "x" in
  Array.iter (fun v -> Repdb_obs.Stats.observe h ~site:0 v) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      checkf
        (Printf.sprintf "q=%g agrees" q)
        (Metrics.percentile sorted q)
        (Repdb_obs.Stats.percentile h ~site:0 q))
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]

let test_metrics_empty () =
  let m = metrics ~n_sites:3 () in
  let s = Metrics.summary m in
  checkf "no throughput" 0.0 s.throughput;
  checkf "no response" 0.0 s.avg_response;
  checkf "no abort rate" 0.0 s.abort_rate;
  (* Zero commits must not produce NaN anywhere in the summary. *)
  checkb "p50 finite" false (Float.is_nan s.p50_response);
  checkb "p95 finite" false (Float.is_nan s.p95_response);
  checkb "p99 finite" false (Float.is_nan s.p99_response);
  checkb "avg prop finite" false (Float.is_nan s.avg_propagation)

let test_metrics_single_sample () =
  let m = metrics () in
  commit m ~site:0 ~response:42.0;
  Metrics.client_done m ~time:100.0;
  let s = Metrics.summary m in
  checkf "p50 of one" 42.0 s.p50_response;
  checkf "p95 of one" 42.0 s.p95_response;
  checkf "p99 of one" 42.0 s.p99_response;
  checkf "avg of one" 42.0 s.avg_response

let test_metrics_aborts_only () =
  let m = metrics () in
  abort m ~site:0 Txn.Deadlock;
  abort m ~site:0 Txn.Lock_timeout;
  Metrics.client_done m ~time:50.0;
  let s = Metrics.summary m in
  checki "no commits" 0 s.commits;
  checki "two aborts" 2 s.aborts;
  checkf "abort rate is total" 100.0 s.abort_rate;
  checkb "avg response finite" false (Float.is_nan s.avg_response);
  checkb "p99 finite" false (Float.is_nan s.p99_response)

let test_metrics_summary_registers_nothing () =
  (* The summary reads "msg.sent" and the response histogram when they
     exist; reading must not register them, or the stats table would grow. *)
  let stats = Repdb_obs.Stats.create ~n_sites:2 () in
  let m = Metrics.create stats in
  let table () = Fmt.str "%a" Repdb_obs.Stats.pp_table stats in
  let before = table () in
  checki "no messages" 0 (Metrics.summary m).messages;
  Alcotest.(check string) "table unchanged" before (table ())

let test_metrics_per_site () =
  let m = metrics ~n_sites:3 () in
  commit m ~site:0 ~response:10.0;
  commit m ~site:2 ~response:30.0;
  abort m ~site:2 Txn.Deadlock;
  Metrics.client_done m ~time:100.0;
  let s = Metrics.summary m in
  checki "three rows" 3 (List.length s.per_site);
  let row site = List.nth s.per_site site in
  checki "site 0 commits" 1 (row 0).Metrics.s_commits;
  checki "site 1 commits" 0 (row 1).Metrics.s_commits;
  checki "site 2 commits" 1 (row 2).Metrics.s_commits;
  checki "site 2 aborts" 1 (row 2).Metrics.s_aborts;
  checkf "site 0 avg" 10.0 (row 0).Metrics.s_avg_response;
  checkf "site 1 avg" 0.0 (row 1).Metrics.s_avg_response

(* --- convergence --------------------------------------------------------- *)

let placement =
  Placement.make ~n_sites:2 ~n_items:2 ~primary:[| 0; 1 |] ~replicas:[| [ 1 ]; [] |]

let small_params = { Params.default with n_sites = 2; n_items = 2 }

let test_convergence_detects_divergence () =
  let c = Cluster.create_with small_params placement in
  checki "initially converged" 0 (List.length (Repdb.Convergence.check c));
  (* Write the primary copy only. *)
  Store.apply c.stores.(0) 0 ~writer:9 ();
  (match Repdb.Convergence.check c with
  | [ d ] ->
      checki "item" 0 d.Repdb.Convergence.item;
      checki "site" 1 d.Repdb.Convergence.site
  | l -> Alcotest.failf "expected one divergence, got %d" (List.length l));
  (* Apply the same write at the replica: converged again. *)
  Store.apply c.stores.(1) 0 ~writer:9 ();
  checki "converged after apply" 0 (List.length (Repdb.Convergence.check c))

(* --- exec ----------------------------------------------------------------- *)

let test_exec_deferred_writes () =
  let c = Cluster.create_with small_params placement in
  Sim.spawn c.sim (fun () ->
      let gid = Cluster.fresh_gid c and attempt = Cluster.fresh_attempt c in
      (match Exec.run_ops c ~gid ~attempt ~site:0 [ Txn.Write 0 ] with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "uncontended acquire failed");
      (* Deferred: nothing in the store until commit. *)
      checki "not yet applied" 0 (Store.read c.stores.(0) 0).Repdb_store.Value.version;
      Exec.apply_writes c ~gid ~site:0 [ 0 ];
      Exec.release c ~attempt ~site:0;
      checki "applied at commit" 1 (Store.read c.stores.(0) 0).Repdb_store.Value.version);
  Sim.run c.sim;
  checki "locks drained" 0 (Repdb_lock.Lock_mgr.locks_held c.locks.(0))

let test_exec_abort_discards () =
  let c = Cluster.create_with { small_params with Params.record_history = true } placement in
  Sim.spawn c.sim (fun () ->
      let gid = Cluster.fresh_gid c and attempt = Cluster.fresh_attempt c in
      (match Exec.run_ops c ~gid ~attempt ~site:0 [ Txn.Read 0; Txn.Write 0 ] with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "acquire failed");
      Exec.abort_local c ~attempt ~site:0);
  Sim.run c.sim;
  checki "no committed accesses" 0 (List.length (Repdb_txn.History.committed_gids c.history));
  checki "locks drained" 0 (Repdb_lock.Lock_mgr.locks_held c.locks.(0))

let test_exec_apply_secondary_retries () =
  (* A conflicting holder times out; the secondary must retry and win. *)
  let c = Cluster.create_with small_params placement in
  let done_at = ref 0.0 in
  Sim.spawn c.sim (fun () ->
      (* Foreign lock held for 120 ms, then released. *)
      let attempt = Cluster.fresh_attempt c in
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:attempt 0 Repdb_lock.Lock_mgr.Exclusive);
      Sim.delay 120.0;
      Repdb_lock.Lock_mgr.release_all c.locks.(1) ~owner:attempt);
  Sim.spawn c.sim (fun () ->
      Exec.apply_secondary c ~gid:77 ~site:1 ~origin_commit:0.0 [ 0 ];
      done_at := Sim.now c.sim);
  Sim.run c.sim;
  checkb "eventually applied" true (!done_at >= 120.0);
  checki "propagation recorded" 1
    (Metrics.summary c.metrics).n_propagations;
  checki "write applied" 1 (Store.read c.stores.(1) 0).Repdb_store.Value.version

(* Random placements and write sets: [fan_out] calls [send] once per replica
   site of a written item other than the origin, in ascending order, and
   returns that count. *)
let gen_fan_out =
  QCheck.Gen.(
    int_range 1 10 >>= fun m ->
    int_range 1 12 >>= fun n ->
    let replicas = list_size (int_bound 4) (int_bound (m - 1)) in
    quad (array_size (return n) (int_bound (m - 1))) (array_size (return n) replicas)
      (list_size (int_bound 5) (int_bound (n - 1)))
      (int_bound (m - 1))
    >|= fun (primary, replicas, writes, origin) -> (m, primary, replicas, writes, origin))

let prop_fan_out =
  QCheck.Test.make ~name:"fan_out sends once per replica site, ascending" ~count:300
    (QCheck.make gen_fan_out) (fun (m, primary, replicas, writes, origin) ->
      let n = Array.length primary in
      let placement = Placement.make ~n_sites:m ~n_items:n ~primary ~replicas in
      let c = Cluster.create_with { Params.default with n_sites = m; n_items = n } placement in
      let sent = ref [] in
      let count = Exec.fan_out c ~site:origin writes (fun dst -> sent := dst :: !sent) in
      let expected =
        List.concat_map (fun item -> Array.to_list placement.replicas.(item)) writes
        |> List.filter (fun s -> s <> origin)
        |> List.sort_uniq compare
      in
      List.rev !sent = expected && count = List.length expected)

let prop_add_site =
  QCheck.Test.make ~name:"participant set is ascending and duplicate-free" ~count:500
    QCheck.(list (int_bound 20))
    (fun inserts ->
      let set = List.fold_left (fun set s -> Exec.add_site s set) [] inserts in
      set = List.sort_uniq compare inserts
      && List.for_all (fun s -> Exec.add_site s set == set) inserts)

(* Site 1 reads item 0 from its primary, site 0, over 10 ms links under a
   5 ms deadline: the request leaves at 0.5 ms (after its [cpu_msg]), the
   timer wins at 5 ms, and the grant's reply lands at about 21 ms. The late
   reply finds its wait already fired, so it is dropped, yet it still gives
   back the request's outstanding token; the [Release] sent at the abort
   frees the lock granted meanwhile. *)
let test_psl_reply_after_deadline () =
  let params = { small_params with Params.latency = 10.0; txn_deadline = 5.0 } in
  let c = Cluster.create_with params placement in
  let psl = Repdb.Psl.create c in
  let outcome = ref Txn.Committed and returned_at = ref nan and held_meanwhile = ref false in
  Sim.spawn c.sim (fun () ->
      outcome := Repdb.Psl.submit psl { Txn.origin = 1; ops = [ Txn.Read 0 ] };
      returned_at := Sim.now c.sim;
      checkb "request and release still in flight" true (Cluster.in_flight c > 0));
  Sim.spawn_at c.sim 13.0 (fun () ->
      held_meanwhile := Repdb_lock.Lock_mgr.holders c.locks.(0) 0 <> []);
  Sim.run c.sim;
  checkb "aborted on its deadline" true (!outcome = Txn.Aborted Txn.Deadline_exceeded);
  checkf "resumed by the timer" 5.0 !returned_at;
  checkb "granted after the deadline" true !held_meanwhile;
  checkb "late reply delivered" true (Sim.now c.sim > 20.0);
  Alcotest.(check string) "every token given back" "" (Cluster.busy c);
  checkb "quiescent" true (Cluster.quiescent c);
  checkb "lock released" true (Repdb_lock.Lock_mgr.holders c.locks.(0) 0 = [])

(* --- routing -------------------------------------------------------------- *)

let test_routing_subtree_maps () =
  (* Chain 0 -> 1 -> 2; item 0 replicated at 2 only. *)
  let placement =
    Placement.make ~n_sites:3 ~n_items:1 ~primary:[| 0 |] ~replicas:[| [ 2 ] |]
  in
  let tr = Tree.chain_of_order [| 0; 1; 2 |] in
  let maps = Repdb.Tree_channel.subtree_replicas placement tr in
  checkb "root subtree sees it" true (Repdb.Tree_channel.in_subtree maps ~site:0 0);
  checkb "middle subtree sees it" true (Repdb.Tree_channel.in_subtree maps ~site:1 0);
  checkb "leaf holds it" true (Repdb.Tree_channel.in_subtree maps ~site:2 0);
  Alcotest.(check (list int)) "middle is relevant from root" [ 1 ]
    (Repdb.Tree_channel.relevant_children maps tr 0 [ 0 ]);
  Alcotest.(check (list int)) "local replicas at 1" []
    (Placement.local_replicas placement 1 [ 0 ]);
  Alcotest.(check (list int)) "local replicas at 2" [ 0 ]
    (Placement.local_replicas placement 2 [ 0 ])

(* --- cluster accounting ---------------------------------------------------- *)

let test_cluster_quiescence_accounting () =
  let c = Cluster.create_with small_params placement in
  checkb "quiescent at start" true (Cluster.quiescent c);
  Cluster.client_started c;
  checkb "busy with client" false (Cluster.quiescent c);
  Cluster.inc_outstanding c;
  Cluster.client_finished c;
  checkb "still outstanding" false (Cluster.quiescent c);
  Cluster.dec_outstanding c;
  checkb "quiescent again" true (Cluster.quiescent c);
  checki "gids monotone" 1 (Cluster.fresh_gid c);
  checki "gids monotone 2" 2 (Cluster.fresh_gid c);
  checki "attempts separate" 1 (Cluster.fresh_attempt c)

let test_cluster_deadlock_policy_param () =
  let params = { small_params with Params.deadlock_policy = `Detect } in
  let c = Cluster.create_with params placement in
  (* Two locally deadlocked owners resolve by detection (no 50 ms wait).
     Site 1 holds both items (replica of 0, primary of 1), so both are valid
     lock targets under the dense placed-item lock tables. *)
  let resolved_at = ref infinity in
  Sim.spawn c.sim (fun () ->
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:1 0 Repdb_lock.Lock_mgr.Exclusive);
      Sim.delay 2.0;
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:1 1 Repdb_lock.Lock_mgr.Exclusive);
      resolved_at := Sim.now c.sim);
  Sim.spawn c.sim (fun () ->
      Sim.delay 1.0;
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:2 1 Repdb_lock.Lock_mgr.Exclusive);
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:2 0 Repdb_lock.Lock_mgr.Exclusive));
  Sim.run c.sim;
  checkb "detection beats the 50ms timeout" true (!resolved_at < 50.0)

let test_cluster_straggler () =
  (* The same burst takes straggler_factor times longer on the slow machine. *)
  let params =
    { small_params with Params.n_machines = 2; straggler_machine = 0; straggler_factor = 4.0 }
  in
  let c = Cluster.create_with params placement in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  Sim.spawn c.sim (fun () ->
      Cluster.use_cpu c 0 10.0;
      t0 := Sim.now c.sim);
  Sim.spawn c.sim (fun () ->
      Cluster.use_cpu c 1 10.0;
      t1 := Sim.now c.sim);
  Sim.run c.sim;
  checkf "slow machine" 40.0 !t0;
  checkf "normal machine" 10.0 !t1

let test_cluster_deadline () =
  let c = Cluster.create_with small_params placement in
  checkb "no deadline" true (Cluster.deadline c = infinity);
  let c = Cluster.create_with { small_params with Params.txn_deadline = 50.0 } placement in
  let at = ref nan in
  Sim.spawn c.sim (fun () ->
      Sim.delay 7.0;
      at := Cluster.deadline c);
  Sim.run c.sim;
  checkf "now + txn_deadline" 57.0 !at

let test_cluster_drained () =
  let c = Cluster.create_with small_params placement in
  let net : int Repdb_net.Network.t = Cluster.make_net c in
  checkb "drained at start" true (Cluster.drained c);
  Cluster.txn_started c;
  checkb "attempt executing" false (Cluster.drained c);
  Alcotest.(check string) "busy" "active_txns=1" (Cluster.busy c);
  Cluster.txn_finished c;
  let served = ref false in
  Repdb_net.Network.serve net 1 (fun ~src:_ _ ->
      Cluster.dec_outstanding c;
      served := true;
      checkb "drained after delivery" true (Cluster.drained c));
  Sim.spawn c.sim (fun () ->
      Cluster.inc_outstanding c;
      Repdb_net.Network.send net ~src:0 ~dst:1 42;
      checki "in flight" 1 (Cluster.in_flight c);
      checkb "message out" false (Cluster.drained c);
      checkb "parked on 0->1" true (Cluster.drained ~parked:(fun ~src ~dst:_ -> src = 0) c);
      checkb "not parked on 1->0" false (Cluster.drained ~parked:(fun ~src ~dst:_ -> src = 1) c));
  Sim.run c.sim;
  checkb "served" true !served;
  Alcotest.(check string) "nothing busy" "" (Cluster.busy c)

let contains ~affix s =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* A token nobody gives back keeps the run from quiescing; the error names
   the counter that is stuck, and only that one. *)
let test_driver_names_stuck_counter () =
  let c = Cluster.create_with { small_params with Params.txns_per_thread = 2 } placement in
  Cluster.inc_outstanding c;
  match Repdb.Driver.run_on c (module Repdb.Backedge_proto) with
  | _ -> Alcotest.fail "expected the run to fail to quiesce"
  | exception Failure msg ->
      checkb ("names outstanding=1 alone: " ^ msg) true (contains ~affix:"(outstanding=1)" msg)

(* Site 1 reads item 0 through PSL's remote read, which a 0.01 ms deadline
   never allows: those transactions abort on every attempt and give up after
   [max_retries]; every other transaction commits. *)
let test_driver_counts_exhausted_retries () =
  let run retry =
    let params =
      {
        small_params with
        Params.threads_per_site = 1;
        txns_per_thread = 4;
        txn_deadline = 0.01;
        retry;
      }
    in
    Repdb.Driver.run_on (Cluster.create_with params placement) (module Repdb.Psl)
  in
  let r = run (Params.Backoff { base = 1.0; multiplier = 2.0; cap = 4.0; max_retries = 2 }) in
  checkb "some exhausted" true (r.retries_exhausted > 0);
  checki "each transaction commits or exhausts" 8 (r.summary.commits + r.retries_exhausted);
  checki "three attempts per exhausted transaction" (3 * r.retries_exhausted) r.summary.aborts;
  let report = Fmt.str "%a" Repdb.Driver.pp_report r in
  let line = Printf.sprintf "retries exhausted: %d" r.retries_exhausted in
  checkb "printed" true (contains ~affix:line report);
  let r = run Params.No_retry in
  checki "none without a retry policy" 0 r.retries_exhausted;
  checkb "not printed" false
    (contains ~affix:"retries exhausted" (Fmt.str "%a" Repdb.Driver.pp_report r))

(* --- experiment plumbing ---------------------------------------------------- *)

let tiny = { Params.default with n_sites = 3; n_items = 12; threads_per_site = 1; txns_per_thread = 5 }

let test_experiment_figure_structure () =
  let fig = Experiments.figure ~steps:2 "fig2a" tiny in
  checki "three points" 3 (List.length fig.points);
  List.iter
    (fun (pt : Repdb.Experiment.point) ->
      checki "two protocols per point" 2 (List.length pt.reports))
    fig.points;
  let csv = Repdb.Experiment.to_csv fig in
  checki "csv lines" (1 + (3 * 2)) (List.length (String.split_on_char '\n' (String.trim csv)))

let test_experiment_tree_routing_runs () =
  let fig = Experiments.figure ~steps:1 "tree-routing" tiny in
  checki "two points" 2 (List.length fig.points)

(* A psl run that checked out 1SR, and a naive one, with both verdicts
   replaced by a cycle: only the psl report is an error. *)
let test_experiment_violations () =
  let base = { tiny with Params.backedge_prob = 0.0; record_history = true } in
  let cycle = Some (Repdb_txn.Serializability.Not_serializable [ 3; 1; 2 ]) in
  let psl = Repdb.Driver.run base (module Repdb.Psl) in
  let naive = Repdb.Driver.run base (module Repdb.Naive) in
  let outcome =
    Repdb.Experiment.Reports
      [
        ("psl", { psl with serializability = cycle });
        ("naive", { naive with serializability = cycle });
        ("psl", psl);
      ]
  in
  Alcotest.(check (list string))
    "one error" [ "resp psl: NOT serializable: cycle 3 -> 1 -> 2" ]
    (Repdb.Experiment.violations "resp" outcome);
  let diverged =
    let v = { Repdb_store.Value.initial with version = 1; writer = 7 } in
    Some
      [
        {
          Repdb.Convergence.item = 4;
          site = 2;
          primary_value = v;
          replica_value = Repdb_store.Value.initial;
        };
      ]
  in
  let fig =
    {
      Repdb.Experiment.id = "fig2a";
      title = "";
      xlabel = "b";
      points = [ { x = 0.5; reports = [ ("naive", { naive with divergent = diverged }) ] } ];
    }
  in
  Alcotest.(check (list string))
    "divergence is never expected"
    [
      "fig2a x=0.5 naive: 1 divergent copies, first item 4 at site 2 (version 0 by -1, primary \
       version 1 by 7)";
    ]
    (Repdb.Experiment.violations "fig2a" (Repdb.Experiment.Figure fig))

(* Liveness: a run in which a transaction ran out of retries is an error. *)
let test_experiment_liveness () =
  let r = Repdb.Driver.run tiny (module Repdb.Psl) in
  Alcotest.(check (list string))
    "one error" [ "resp psl: 1 transactions exhausted their retries" ]
    (Repdb.Experiment.violations "resp"
       (Repdb.Experiment.Reports [ ("psl", { r with retries_exhausted = 1 }); ("psl", r) ]))

let () =
  Alcotest.run "core"
    [
      ( "metrics",
        [
          Alcotest.test_case "counts" `Quick test_metrics_counts;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "percentile nearest rank" `Quick test_metrics_percentile_nearest_rank;
          Alcotest.test_case "percentile agrees with stats" `Quick
            test_metrics_stats_percentiles_agree;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          Alcotest.test_case "single sample" `Quick test_metrics_single_sample;
          Alcotest.test_case "aborts only" `Quick test_metrics_aborts_only;
          Alcotest.test_case "per site" `Quick test_metrics_per_site;
          Alcotest.test_case "summary registers nothing" `Quick
            test_metrics_summary_registers_nothing;
        ] );
      ( "convergence",
        [ Alcotest.test_case "detects divergence" `Quick test_convergence_detects_divergence ] );
      ( "exec",
        [
          Alcotest.test_case "deferred writes" `Quick test_exec_deferred_writes;
          Alcotest.test_case "abort discards" `Quick test_exec_abort_discards;
          Alcotest.test_case "secondary retries" `Quick test_exec_apply_secondary_retries;
          Alcotest.test_case "psl reply after its deadline" `Quick test_psl_reply_after_deadline;
          QCheck_alcotest.to_alcotest prop_fan_out;
          QCheck_alcotest.to_alcotest prop_add_site;
        ] );
      ( "routing", [ Alcotest.test_case "subtree maps" `Quick test_routing_subtree_maps ] );
      ( "cluster",
        [
          Alcotest.test_case "quiescence accounting" `Quick test_cluster_quiescence_accounting;
          Alcotest.test_case "deadlock policy param" `Quick test_cluster_deadlock_policy_param;
          Alcotest.test_case "straggler machine" `Quick test_cluster_straggler;
          Alcotest.test_case "derived deadline" `Quick test_cluster_deadline;
          Alcotest.test_case "drain predicate" `Quick test_cluster_drained;
        ] );
      ( "driver",
        [
          Alcotest.test_case "names the stuck counter" `Quick test_driver_names_stuck_counter;
          Alcotest.test_case "counts exhausted retries" `Quick test_driver_counts_exhausted_retries;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "figure structure" `Quick test_experiment_figure_structure;
          Alcotest.test_case "tree-routing ablation" `Quick test_experiment_tree_routing_runs;
          Alcotest.test_case "violations" `Quick test_experiment_violations;
          Alcotest.test_case "liveness" `Quick test_experiment_liveness;
        ] );
    ]
