(* Tests for online reconfiguration: the plan spec and its parser, synthetic
   plan generation, live epoch switches under every reconfigurable protocol
   (multi-epoch histories staying serializable, added replicas converging),
   determinism across repeats and domain pools, combined fault + reconfig
   runs, and the rebuilt tree/routing after random add/drop sequences. *)

module Reconfig = Repdb_reconfig.Reconfig
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Tree = Repdb_graph.Tree
module Digraph = Repdb_graph.Digraph
module Fault = Repdb_fault.Fault
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Driver = Repdb.Driver

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* --- plan / spec ----------------------------------------------------------- *)

let parse spec =
  match Reconfig.of_string spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "spec %S did not parse: %s" spec m

let test_spec_parse () =
  let p = parse "rebalance@600:from=1,to=2;add@300:item=5,site=3;drop@450:item=5,site=3" in
  checki "three steps" 3 (Reconfig.n_steps p);
  (* Steps come out sorted by trigger time regardless of clause order. *)
  (match p.steps with
  | [ a; d; r ] ->
      checkf "add at" 300.0 a.at;
      checkb "add step" true (a.step = Reconfig.Add_replica { item = 5; site = 3 });
      checkf "drop at" 450.0 d.at;
      checkb "drop step" true (d.step = Reconfig.Drop_replica { item = 5; site = 3 });
      checkf "rebalance at" 600.0 r.at;
      checkb "rebalance step" true (r.step = Reconfig.Rebalance_site { from_site = 1; to_site = 2 })
  | _ -> Alcotest.fail "expected three steps");
  checkf "last event" 600.0 (Reconfig.last_event p);
  checkb "empty spec is empty" true (Reconfig.is_empty (parse ""));
  checkf "empty last event" 0.0 (Reconfig.last_event Reconfig.empty)

let test_spec_roundtrip () =
  let specs =
    [
      "add@300:item=5,site=3;drop@450:item=5,site=3;rebalance@600:from=1,to=2";
      "add@0:item=0,site=1";
      "rebalance@1500:from=3,to=4;rebalance@100:from=0,to=1";
      "";
    ]
  in
  List.iter
    (fun spec ->
      let p = parse spec in
      let p' = parse (Reconfig.to_string p) in
      checkb (Printf.sprintf "%S round-trips" spec) true (p = p'))
    specs

(* A plan in canonical form over every step kind; times include ones %g
   would round and ones printed with an exponent. *)
let gen_plan =
  let open QCheck.Gen in
  let time =
    oneof [ float_bound_inclusive 5000.0; float_bound_inclusive 1e-3; float_bound_inclusive 1e12 ]
  in
  let n = int_bound 1000 in
  let step =
    oneof
      [
        map2 (fun item site -> Reconfig.Add_replica { item; site }) n n;
        map2 (fun item site -> Reconfig.Drop_replica { item; site }) n n;
        map2 (fun from_site to_site -> Reconfig.Rebalance_site { from_site; to_site }) n n;
      ]
  in
  let canonical (a : Reconfig.timed) (b : Reconfig.timed) = compare (a.at, a.step) (b.at, b.step) in
  map
    (fun steps -> { Reconfig.steps = List.sort canonical steps })
    (list_size (int_bound 6) (map2 (fun at step -> { Reconfig.at; step }) time step))

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string p) = Ok p" ~count:500
    (QCheck.make ~print:Reconfig.to_string gen_plan)
    (fun p -> Reconfig.of_string (Reconfig.to_string p) = Ok p)

let test_spec_errors () =
  let bad spec =
    match Reconfig.of_string spec with
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
    | Error _ -> ()
  in
  bad "add@300:item=5" (* missing site *);
  bad "add@abc:item=1,site=2" (* bad time *);
  bad "drop@10:item=x,site=2" (* bad int *);
  bad "rebalance@5:from=1" (* missing to *);
  bad "grow@10:item=1,site=2" (* unknown kind *);
  bad "nonsense";
  (* validation (not parse) errors *)
  let invalid spec =
    match Reconfig.validate ~n_sites:4 ~n_items:10 (parse spec) with
    | () -> Alcotest.failf "%S should not validate" spec
    | exception Invalid_argument _ -> ()
  in
  invalid "add@10:item=5,site=5" (* site out of range *);
  invalid "add@10:item=10,site=2" (* item out of range *);
  invalid "drop@10:item=-1,site=2";
  invalid "rebalance@10:from=1,to=1" (* self rebalance *);
  invalid "add@-5:item=1,site=2" (* negative trigger *);
  Reconfig.validate ~n_sites:4 ~n_items:10 (parse "add@10:item=5,site=3")

let test_synthetic () =
  let p = Reconfig.synthetic ~n_sites:5 ~n_items:40 ~seed:42 ~n_steps:6 () in
  checki "six steps" 6 (Reconfig.n_steps p);
  Reconfig.validate ~n_sites:5 ~n_items:40 p;
  let p' = Reconfig.synthetic ~n_sites:5 ~n_items:40 ~seed:42 ~n_steps:6 () in
  checkb "deterministic in the seed" true (p = p');
  let p'' = Reconfig.synthetic ~n_sites:5 ~n_items:40 ~seed:43 ~n_steps:6 () in
  checkb "seed matters" false (p = p'');
  checkb "degenerate sites" true (Reconfig.is_empty (Reconfig.synthetic ~n_sites:1 ~n_items:40 ~seed:1 ~n_steps:4 ()));
  (* Synthetic steps respect the round-robin layout: applying them to a
     forward-only placement keeps the copy graph an acyclic DAG. *)
  let params = { Params.default with n_sites = 5; n_items = 40; backedge_prob = 0.0 } in
  let pl0 = Placement.generate (Repdb_sim.Rng.create 7) params in
  let final =
    List.fold_left (fun pl (ts : Reconfig.timed) -> Placement.apply_step pl ts.step) pl0 p.steps
  in
  checkb "still a DAG" true (Digraph.topo_sort (Placement.copy_graph final) <> None);
  checkb "no backedges introduced" true (Placement.backedges final = [])

(* --- live protocol runs ----------------------------------------------------- *)

(* Times chosen so every switch lands mid-workload (a 4x2x25 run lasts a few
   hundred simulated ms). *)
let plan_spec = "add@30:item=2,site=3;drop@60:item=2,site=3;rebalance@90:from=1,to=2"

let reconfig_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 40;
    threads_per_site = 2;
    txns_per_thread = 25;
    record_history = true;
    reconfig = (match Reconfig.of_string plan_spec with Ok p -> p | Error m -> failwith m);
  }

let run_report ?(params = reconfig_params) protocol =
  let c = Repdb.Cluster.create params in
  (Driver.run_on c protocol, c)

let is_serializable (r : Driver.report) =
  match r.serializability with
  | Some Repdb_txn.Serializability.Serializable -> true
  | Some _ -> false
  | None -> Alcotest.fail "history was not recorded"

let test_multi_epoch_serializable () =
  (* Histories spanning all three epoch switches must stay one-copy
     serializable and converge for every reconfigurable protocol. *)
  List.iter
    (fun (name, protocol, backedge_prob) ->
      let params = { reconfig_params with Params.backedge_prob } in
      let r, _ = run_report ~params protocol in
      checki (name ^ ": all switches executed") 3 r.reconfigs;
      checkb (name ^ ": multi-epoch history serializable") true (is_serializable r);
      (match r.divergent with
      | Some [] | None -> ()
      | Some d -> Alcotest.failf "%s: %d divergent copies after reconfiguration" name (List.length d));
      let total = params.Params.n_sites * params.threads_per_site * params.txns_per_thread in
      checki (name ^ ": every attempt accounted") total (r.summary.commits + r.summary.aborts))
    [
      ("backedge", (module Repdb.Backedge_proto : Repdb.Protocol.S), 0.2);
      ("dag-wt", (module Repdb.Dag_wt : Repdb.Protocol.S), 0.0);
      ("psl", (module Repdb.Psl : Repdb.Protocol.S), 0.2);
    ]

let test_added_replica_converges () =
  (* Start from zero replication so the added replica is provably created by
     the state transfer, then check it holds the primary's final value. *)
  let params =
    {
      reconfig_params with
      Params.replication_prob = 0.0;
      reconfig =
        (match Reconfig.of_string "add@30:item=2,site=3;add@50:item=7,site=1" with
        | Ok p -> p
        | Error m -> failwith m);
    }
  in
  let r, c = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  checki "two switches" 2 r.reconfigs;
  checki "two state transfers" 2 r.state_transfers;
  let pl = c.placement in
  checkb "replica of 2 at site 3" true (Array.mem 3 pl.replicas.(2));
  checkb "replica of 7 at site 1" true (Array.mem 1 pl.replicas.(7));
  (* item mod m primaries: item 2 -> site 2, item 7 -> site 3. *)
  checkb "item 2 converged" true
    (Value.equal (Store.read c.stores.(2) 2) (Store.read c.stores.(3) 2));
  checkb "item 7 converged" true
    (Value.equal (Store.read c.stores.(3) 7) (Store.read c.stores.(1) 7));
  let converged name (r : Driver.report) =
    match r.divergent with
    | Some [] -> ()
    | Some d -> Alcotest.failf "%s: %d divergent copies" name (List.length d)
    | None -> Alcotest.failf "%s: no convergence check ran" name
  in
  converged "zero replication" r;
  (* Write-heavy runs whose add lands while transactions are executing: the
     transfer must wait for the first drain, or it ships a primary value that
     a still-running transaction overwrites without propagating it to the
     not-yet-routed replica. *)
  List.iter
    (fun (name, protocol, params) ->
      converged name
        (Driver.run
           { params with Params.n_sites = 4; n_items = 8; reconfig = parse name }
           protocol))
    [
      ("add@87:item=3,site=1", (module Repdb.Dag_wt : Repdb.Protocol.S), Params.default);
      ( "add@50:item=0,site=3",
        (module Repdb.Backedge_proto : Repdb.Protocol.S),
        { Params.default with seed = 1; read_txn_prob = 0.0; txns_per_thread = 40 } );
    ]

let test_cyclic_plan_refused () =
  (* DAG(WT) must refuse, at creation rather than stuck at a switch:
     - a plan whose step closes a cycle (item 2's primary is site 2; a
       replica at site 0 closes a cycle with the forward edges);
     - any plan under healing, even an acyclic one: a failover promotion
       before a later step can make the graph cyclic. *)
  let params =
    { Params.default with n_sites = 4; n_items = 8; txns_per_thread = 5 }
  in
  List.iter
    (fun (what, params) ->
      let c = Repdb.Cluster.create params in
      (match Driver.run_on c (module Repdb.Dag_wt : Repdb.Protocol.S) with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ());
      checki (what ^ ": no event ran") 0 (Repdb_sim.Sim.events_executed c.sim))
    [
      ("cyclic plan", { params with reconfig = parse "add@50:item=2,site=0" });
      ( "plan under healing",
        { params with backedge_prob = 0.0; heal = true; reconfig = parse "add@87:item=3,site=1" } );
    ]

let test_deterministic_repeats () =
  (* Byte-identical reports across repeats, stall times and all. *)
  let show () =
    let r, _ = run_report (module Repdb.Backedge_proto : Repdb.Protocol.S) in
    Fmt.str "%a" Driver.pp_report r
  in
  checks "identical across repeats" (show ()) (show ())

let test_sweep_deterministic_across_pools () =
  (* The reconfig sweep's CSV must be identical sequentially and on a domain
     pool: each run owns its coordinator, transfer network and RNG streams. *)
  let base = { reconfig_params with Params.reconfig = Reconfig.empty; txns_per_thread = 8 } in
  let seq = Experiments.output "reconfig" base in
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        Experiments.output ~pool "reconfig" base)
  in
  checks "sequential = pooled" seq par

let test_combined_faults_and_reconfig () =
  (* A crash overlapping an epoch switch: the drain must wait out the acked
     retransmissions to the downed site, and the run must still converge. *)
  let params =
    {
      reconfig_params with
      Params.backedge_prob = 0.2;
      faults =
        (match Fault.of_string "crash@40:site=2,down=100;drop@0-80:p=0.1" with
        | Ok s -> s
        | Error m -> failwith m);
    }
  in
  let r, _ = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  checki "crash executed" 1 r.crashes;
  checki "all switches executed" 3 r.reconfigs;
  checkb "serializable" true (is_serializable r);
  match r.divergent with
  | Some [] -> ()
  | Some d -> Alcotest.failf "%d divergent copies" (List.length d)
  | None -> Alcotest.fail "no convergence check ran"

let test_empty_plan_is_noop () =
  let params = { reconfig_params with Params.reconfig = Reconfig.empty } in
  let r, c = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  checki "no switches" 0 r.reconfigs;
  checki "no transfers" 0 r.state_transfers;
  checkf "no stall" 0.0 r.reconfig_stall;
  checkb "no reconfig histograms registered" true
    (c.epoch.switch_hist = None && c.epoch.stall_hist = None)

(* --- rebuilt tree / routing (QCheck) ---------------------------------------- *)

let test_random_add_drop_rebuild =
  (* After any sequence of adds/drops that respect the sites-after-primary
     rule, the copy graph must stay acyclic, the rebuilt DAG(WT) tree must
     satisfy the ancestor property for every copy-graph edge, and the chain
     order must see no backedges. *)
  let params = { Params.default with n_sites = 5; n_items = 20; backedge_prob = 0.0 } in
  let base = Placement.generate (Repdb_sim.Rng.create 11) params in
  let to_step (item, off, is_add) =
    let item = item mod params.n_items in
    let primary = base.Placement.primary.(item) in
    if primary >= params.n_sites - 1 then None
    else
      let site = primary + 1 + (off mod (params.n_sites - 1 - primary)) in
      Some (if is_add then Reconfig.Add_replica { item; site } else Reconfig.Drop_replica { item; site })
  in
  QCheck.Test.make ~name:"random add/drop keeps tree and routing valid" ~count:200
    QCheck.(list (triple (int_bound 1000) (int_bound 1000) bool))
    (fun raw ->
      let steps = List.filter_map to_step raw in
      let final = List.fold_left Placement.apply_step base steps in
      let g = Placement.copy_graph final in
      Digraph.topo_sort g <> None
      && Tree.satisfies g (Tree.of_dag g)
      && Placement.backedges final = []
      && (* the memo agrees with a from-scratch placement *)
      Digraph.edges g
         = Digraph.edges
             (Placement.copy_graph
                (Placement.make ~n_sites:final.Placement.n_sites ~n_items:final.Placement.n_items
                   ~primary:(Array.copy final.Placement.primary)
                   ~replicas:(Array.map Array.to_list final.Placement.replicas))))

(* --- experiment registry ----------------------------------------------------- *)

let test_experiment_registry () =
  (* The CLI derives both its help text and its dispatch from
     [Experiment.registry]; this pins the registry so a new sweep that is not
     registered (and hence invisible to the CLI) fails the build here. *)
  Alcotest.(check (list string))
    "registered experiment ids"
    [
      "fig2a"; "fig2b"; "fig3a"; "fig3b"; "resp"; "sites"; "threads"; "latency"; "readtxn";
      "ablation"; "eager-scaling"; "tree-routing"; "deadlock-policy"; "dummy-period"; "hotspot";
      "straggler"; "site-order"; "faults"; "reconfig"; "partition"; "occ"; "heal"; "variance";
      "large";
    ]
    Repdb.Experiment.ids;
  checki "ids are unique"
    (List.length Repdb.Experiment.ids)
    (List.length (List.sort_uniq compare Repdb.Experiment.ids));
  List.iter
    (fun id ->
      match Repdb.Experiment.find id with
      | Some e ->
          checks (id ^ " resolves to itself") id e.exp_id;
          checkb (id ^ " has a doc line") true (String.length e.doc > 0)
      | None -> Alcotest.failf "id %S does not resolve" id)
    Repdb.Experiment.ids;
  checkb "unknown id" true (Repdb.Experiment.find "nonesuch" = None)

let () =
  Alcotest.run "reconfig"
    [
      ( "plan",
        [
          Alcotest.test_case "spec parse" `Quick test_spec_parse;
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "synthetic" `Quick test_synthetic;
        ] );
      ( "live",
        [
          Alcotest.test_case "multi-epoch serializable" `Quick test_multi_epoch_serializable;
          Alcotest.test_case "added replica converges" `Quick test_added_replica_converges;
          Alcotest.test_case "cyclic plan refused up front" `Quick test_cyclic_plan_refused;
          Alcotest.test_case "deterministic repeats" `Quick test_deterministic_repeats;
          Alcotest.test_case "sweep deterministic across pools" `Quick
            test_sweep_deterministic_across_pools;
          Alcotest.test_case "combined faults and reconfig" `Quick test_combined_faults_and_reconfig;
          Alcotest.test_case "empty plan is a no-op" `Quick test_empty_plan_is_noop;
        ] );
      ( "rebuild",
        [ QCheck_alcotest.to_alcotest test_random_add_drop_rebuild ] );
      ( "registry",
        [ Alcotest.test_case "cli registry" `Quick test_experiment_registry ] );
    ]
