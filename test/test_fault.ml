(* Tests for the deterministic fault-injection layer: the schedule spec and
   its parser, the injector's transmission plans, faulty networks staying
   FIFO, and whole protocol runs surviving crash/recovery — deterministically
   and with converged, serializable results. *)

module Fault = Repdb_fault.Fault
module Sim = Repdb_sim.Sim
module Network = Repdb_net.Network
module Params = Repdb_workload.Params

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* --- schedule / spec ------------------------------------------------------- *)

let parse spec =
  match Fault.of_string spec with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec %S did not parse: %s" spec m

let test_spec_parse () =
  let s = parse "crash@2000:site=1,down=300;drop@0-1000:p=0.05,src=0;delay@50-60:add=10;rto=2" in
  checki "one crash" 1 (List.length s.crashes);
  (match s.crashes with
  | [ c ] ->
      checki "site" 1 c.site;
      checkf "at" 2000.0 c.at;
      checkf "down" 300.0 c.down_for
  | _ -> assert false);
  checki "two windows" 2 (List.length s.windows);
  checkf "rto" 2.0 s.rto;
  let d = parse "crash@100:site=0" in
  checkf "default downtime" 500.0 (List.hd d.crashes).down_for;
  checkf "default rto" 5.0 d.rto;
  checkb "empty spec is empty" true (Fault.is_empty (parse ""));
  checkf "last event" 2300.0 (Fault.last_event s)

let test_spec_roundtrip () =
  let specs =
    [
      "crash@2000:site=1,down=300;drop@0-1000:p=0.05,src=0;delay@50-60:add=10;rto=2";
      "crash@100:site=0,down=500";
      "drop@0-50:p=1,dst=2";
      "";
    ]
  in
  List.iter
    (fun spec ->
      let s = parse spec in
      let s' = parse (Fault.to_string s) in
      checkb (Printf.sprintf "%S round-trips" spec) true (s = s'))
    specs

(* Any finite non-negative time, including ones %g would round and ones
   printed with an exponent. *)
let gen_time =
  QCheck.Gen.(
    oneof [ float_bound_inclusive 5000.0; float_bound_inclusive 1e-3; float_bound_inclusive 1e12 ])

(* A schedule in the canonical form [of_string] returns: every clause kind,
   crashes and corruptions in its sort order, each window a drop or a delay. *)
let gen_schedule =
  let open QCheck.Gen in
  let site = int_bound 64 and endpoint = int_range (-1) 64 in
  let span = pair gen_time gen_time in
  let prob = float_range 1e-9 1.0 in
  let crash = map3 (fun site at down_for -> { Fault.site; at; down_for }) site gen_time gen_time in
  let window =
    map3
      (fun (src, dst) (from_t, until_t) (drop, p) ->
        {
          Fault.src;
          dst;
          from_t;
          until_t;
          drop_prob = (if drop then p else 0.0);
          extra_delay = (if drop then 0.0 else p);
        })
      (pair endpoint endpoint) span (pair bool prob)
  in
  let partition =
    map2
      (fun (from_t, until_t) groups -> { Fault.from_t; until_t; groups })
      span
      (list_size (int_range 1 3) (list_size (int_range 1 4) site))
  in
  let corruption =
    map3 (fun c_site c_at c_prob -> { Fault.c_site; c_at; c_prob }) site gen_time prob
  in
  let few g = list_size (int_bound 3) g in
  map3
    (fun (crashes, windows) (partitions, corruptions) rto ->
      {
        Fault.crashes =
          List.sort (fun (a : Fault.crash) b -> compare (a.at, a.site) (b.at, b.site)) crashes;
        windows;
        partitions;
        corruptions =
          List.sort
            (fun (a : Fault.corruption) b -> compare (a.c_at, a.c_site) (b.c_at, b.c_site))
            corruptions;
        rto;
      })
    (pair (few crash) (few window))
    (pair (few partition) (few corruption))
    (oneof [ return Fault.empty.rto; float_range 0.1 100.0 ])

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string s) = Ok s" ~count:500
    (QCheck.make ~print:Fault.to_string gen_schedule)
    (fun s -> Fault.of_string (Fault.to_string s) = Ok s)

let test_spec_errors () =
  let bad spec =
    match Fault.of_string spec with
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
    | Error _ -> ()
  in
  bad "crash@100";
  (* missing site *)
  bad "crash@abc:site=0";
  bad "drop@0-100:src=1";
  (* missing p *)
  bad "delay@5:add=1";
  (* not a span *)
  bad "flood@0-1:p=1";
  bad "nonsense";
  (* validation (not parse) errors *)
  let invalid spec n_sites =
    match Fault.validate ~n_sites (parse spec) with
    | () -> Alcotest.failf "%S should not validate for %d sites" spec n_sites
    | exception Invalid_argument _ -> ()
  in
  invalid "crash@100:site=5" 3;
  invalid "crash@100:site=0,down=0" 3;
  invalid "crash@100:site=0;crash@200:site=0" 3 (* overlapping downtimes *);
  invalid "drop@0-100:p=1.5" 3;
  invalid "drop@100-50:p=0.1" 3;
  invalid "rto=0" 3;
  invalid "drop@1-5:p=nan" 3;
  invalid "drop@nan-5:p=0.1" 3;
  invalid "drop@1-nan:p=0.1" 3;
  Fault.validate ~n_sites:3 (parse "crash@100:site=0,down=50;crash@200:site=0")

let test_partition_spec () =
  let s = parse "crash@100:site=0,down=50;partition@500-1500:groups=0.1.2|3.4" in
  checki "one partition" 1 (List.length s.partitions);
  (match s.partitions with
  | [ p ] ->
      checkf "from" 500.0 p.from_t;
      checkf "until" 1500.0 p.until_t;
      checks "groups" "0.1.2|3.4" (Fault.string_of_groups p.groups)
  | _ -> assert false);
  (* Regression: last_event must account for partition windows, or run
     horizons stop short of the heal. *)
  checkf "last event is the heal" 1500.0 (Fault.last_event s);
  checkb "round-trips" true (s = parse (Fault.to_string s));
  Fault.validate ~n_sites:5 s;
  let bad spec =
    match Fault.of_string spec with
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
    | Error _ -> ()
  in
  bad "partition@500:groups=0|1";
  (* not a span *)
  bad "partition@0-100";
  (* missing groups *)
  bad "partition@0-100:groups=a|b";
  let invalid spec n_sites =
    match Fault.validate ~n_sites (parse spec) with
    | () -> Alcotest.failf "%S should not validate for %d sites" spec n_sites
    | exception Invalid_argument _ -> ()
  in
  invalid "partition@0-100:groups=0.1|2" 2 (* site out of range *);
  invalid "partition@0-100:groups=0.1|1.2" 4 (* overlapping groups *);
  invalid "partition@0-100:groups=0.1" 4 (* a split needs two groups *);
  invalid "partition@100-50:groups=0|1" 4 (* empty window *);
  invalid "partition@nan-300:groups=0.1|2.3" 4;
  invalid "partition@10-inf:groups=0.1|2.3" 4

let test_partition_reachability () =
  let inj = Fault.injector ~n_sites:5 ~seed:1 (parse "partition@100-200:groups=0.1|2.3") in
  checkb "reachable before" true (Fault.reachable inj ~src:0 ~dst:2 ~at:99.0);
  checkb "separated inside" false (Fault.reachable inj ~src:0 ~dst:2 ~at:100.0);
  checkb "symmetric" false (Fault.reachable inj ~src:2 ~dst:0 ~at:150.0);
  checkb "same group reachable" true (Fault.reachable inj ~src:0 ~dst:1 ~at:150.0);
  checkb "ungrouped site unaffected" true (Fault.reachable inj ~src:0 ~dst:4 ~at:150.0);
  checkb "reachable after heal" true (Fault.reachable inj ~src:0 ~dst:2 ~at:200.0);
  (* The link parks cross-partition messages until the heal. *)
  let tm = Fault.transmit inj ~src:0 ~dst:3 ~now:150.0 in
  checkb "attempts dropped during the split" true (tm.dropped <> []);
  checkf "departs at the heal" 200.0 tm.depart;
  (* Same-group traffic is untouched. *)
  let tm = Fault.transmit inj ~src:0 ~dst:1 ~now:150.0 in
  checkb "no drops in-group" true (tm.dropped = []);
  checkf "departs now" 150.0 tm.depart

let test_synthetic () =
  let s = Fault.synthetic ~n_sites:5 ~seed:42 ~n_crashes:4 () in
  checki "four crashes" 4 (List.length s.crashes);
  Fault.validate ~n_sites:5 s;
  let s' = Fault.synthetic ~n_sites:5 ~seed:42 ~n_crashes:4 () in
  checkb "deterministic in the seed" true (s = s');
  let s'' = Fault.synthetic ~n_sites:5 ~seed:43 ~n_crashes:4 () in
  checkb "seed matters" false (s = s'')

(* --- injector -------------------------------------------------------------- *)

let test_injector_down () =
  let inj = Fault.injector ~n_sites:3 ~seed:1 (parse "crash@100:site=1,down=50") in
  checkb "up before" false (Fault.down inj ~site:1 ~at:99.0);
  checkb "down at crash" true (Fault.down inj ~site:1 ~at:100.0);
  checkb "down inside" true (Fault.down inj ~site:1 ~at:149.0);
  checkb "up at restart" false (Fault.down inj ~site:1 ~at:150.0);
  checkb "other site unaffected" false (Fault.down inj ~site:0 ~at:120.0)

let test_transmit_around_downtime () =
  let inj = Fault.injector ~n_sites:3 ~seed:1 (parse "crash@100:site=1,down=50;rto=5") in
  (* Fault-free instant: departs immediately. *)
  let tm = Fault.transmit inj ~src:0 ~dst:2 ~now:10.0 in
  checkb "no drops" true (tm.dropped = []);
  checkf "departs now" 10.0 tm.depart;
  checkf "no surcharge" 0.0 tm.extra;
  (* Destination down: one timed-out attempt, retry once it is back up. *)
  let tm = Fault.transmit inj ~src:0 ~dst:1 ~now:120.0 in
  checki "one drop" 1 (List.length tm.dropped);
  checkf "dropped at send" 120.0 (List.hd tm.dropped);
  checkf "departs at restart" 150.0 tm.depart;
  (* Source down counts too. *)
  let tm = Fault.transmit inj ~src:1 ~dst:2 ~now:130.0 in
  checkf "src down delays" 150.0 tm.depart

let test_transmit_drop_window () =
  (* p = 1 inside the window: every attempt fails until the window closes;
     retries advance by the RTO. *)
  let inj = Fault.injector ~n_sites:2 ~seed:1 (parse "drop@0-20:p=1;rto=5") in
  let tm = Fault.transmit inj ~src:0 ~dst:1 ~now:0.0 in
  checkb "attempts at 0,5,10,15" true (tm.dropped = [ 0.0; 5.0; 10.0; 15.0 ]);
  checkf "departs when the window closes" 20.0 tm.depart;
  (* A delay window adds a surcharge without dropping. *)
  let inj = Fault.injector ~n_sites:2 ~seed:1 (parse "delay@0-100:add=7") in
  let tm = Fault.transmit inj ~src:0 ~dst:1 ~now:50.0 in
  checkb "no drops" true (tm.dropped = []);
  checkf "surcharge" 7.0 tm.extra;
  (* An unbounded certain-loss window can never transmit. *)
  let inj = Fault.injector ~n_sites:2 ~seed:1 (parse "drop@0-1000000:p=1;rto=100") in
  (match Fault.transmit inj ~src:0 ~dst:1 ~now:0.0 with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ())

let test_network_fifo_across_drops () =
  (* Messages racing through a lossy window must still arrive in send order
     per pair: a retransmitted head must not be overtaken by a clean tail. *)
  let sched = parse "drop@0-30:p=0.6;rto=5" in
  let sim = Sim.create () in
  let inj = Fault.injector ~n_sites:2 ~seed:7 sched in
  let net = Network.create ~sim ~n_sites:2 ~latency:(fun _ _ -> 1.0) ~injector:inj () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ v -> got := v :: !got);
  Sim.spawn sim (fun () ->
      for i = 1 to 30 do
        Network.send net ~src:0 ~dst:1 i;
        Sim.delay 1.0
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO despite drops" (List.init 30 (fun i -> i + 1)) (List.rev !got);
  checkb "the window actually dropped something" true (Network.messages_dropped net > 0)

(* --- protocol runs under faults -------------------------------------------- *)

let fault_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 40;
    threads_per_site = 2;
    txns_per_thread = 25;
    record_history = true;
    faults =
      (match Fault.of_string "crash@50:site=1,down=150;crash@260:site=3,down=100;drop@0-200:p=0.15" with
      | Ok s -> s
      | Error m -> failwith m);
  }

let run_report ?(params = fault_params) protocol =
  let c = Repdb.Cluster.create params in
  (Repdb.Driver.run_on c protocol, c)

let test_crash_recovery_converges () =
  (* Every replica-updating protocol must converge to identical replica
     contents after crashes and recovery, stay serializable, and actually
     have exercised the fault machinery. *)
  List.iter
    (fun (name, protocol, backedge_prob) ->
      let params = { fault_params with Params.backedge_prob } in
      let r, _ = run_report ~params protocol in
      checki (name ^ ": crashes injected") 2 r.crashes;
      checkb (name ^ ": messages were dropped") true (r.msg_drops > 0);
      let module P = (val protocol : Repdb.Protocol.S) in
      (match r.divergent with
      | Some [] -> ()
      | Some d -> Alcotest.failf "%s: %d divergent copies after recovery" name (List.length d)
      | None ->
          (* Protocols with virtual replicas (PSL) have nothing to converge. *)
          if P.updates_replicas then Alcotest.failf "%s: no convergence check ran" name);
      match r.serializability with
      | Some Repdb_txn.Serializability.Serializable -> ()
      | Some _ -> Alcotest.failf "%s: history not serializable under faults" name
      | None -> Alcotest.failf "%s: no serializability verdict" name)
    [
      ("backedge", (module Repdb.Backedge_proto : Repdb.Protocol.S), 0.2);
      ("dag-wt", (module Repdb.Dag_wt : Repdb.Protocol.S), 0.0);
      ("psl", (module Repdb.Psl : Repdb.Protocol.S), 0.2);
    ]

let test_crash_recovery_deterministic () =
  (* Byte-identical reports across repeats: same seed, same schedule, same
     everything — the injector draws from its own stream. *)
  let show () =
    let r, _ = run_report (module Repdb.Backedge_proto : Repdb.Protocol.S) in
    Fmt.str "%a" Repdb.Driver.pp_report r
  in
  checks "identical across repeats" (show ()) (show ())

let test_recovery_drill_ran () =
  (* The cluster's restart path must have rebuilt the crashed sites' stores
     from their redo logs ([crashes] counts executed crash events, and the
     recovery drill raises on any divergence — reaching quiescence means it
     passed). *)
  let r, c = run_report (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  let f = Option.get c.faults in
  checki "both scheduled crashes executed" 2 f.crashes;
  checki "report agrees" 2 r.crashes;
  checkb "sites back up" true (Repdb.Fault_exec.site_up c 1 && Repdb.Fault_exec.site_up c 3);
  (* The wals are still attached: a fresh recovery reproduces the final
     stores, including post-restart writes. *)
  Array.iteri
    (fun site wal ->
      checkb
        (Printf.sprintf "site %d re-recoverable" site)
        true
        (Repdb_store.Store.contents (Repdb_store.Wal.recover wal ~site)
        = Repdb_store.Store.contents c.stores.(site)))
    f.wals

let test_fault_sweep_deterministic_across_pools () =
  (* The fault sweep's CSV must be identical sequentially and on a domain
     pool — fault draws are per-run state, so parallel interleaving cannot
     leak into results. *)
  let base = { fault_params with Params.faults = Fault.empty; txns_per_thread = 8 } in
  let seq = Experiments.output "faults" base in
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        Experiments.output ~pool "faults" base)
  in
  checks "sequential = pooled" seq par

let combined_params =
  (* Partition + crash + drops, with deadlines and backoff retry: the full
     robustness stack in one schedule. *)
  {
    fault_params with
    Params.retry = Params.default_backoff;
    txn_deadline = 150.0;
    faults =
      (match
         Fault.of_string
           "crash@50:site=1,down=150;partition@100-400:groups=0.1|2.3;drop@0-200:p=0.1"
       with
      | Ok s -> s
      | Error m -> failwith m);
  }

let test_partition_crash_retry_deterministic () =
  (* Byte-identical reports across repeats and on a domain pool: the backoff
     jitter comes from per-client seeded streams and the injector from its
     own, so neither wall-clock nor domain interleaving can leak in. *)
  checkf "last event includes the heal" 400.0 (Fault.last_event combined_params.Params.faults);
  let show () =
    let r, _ = run_report ~params:combined_params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
    Fmt.str "%a" Repdb.Driver.pp_report r
  in
  let seq = show () in
  checks "identical across repeats" seq (show ());
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        (Repdb_par.Pool.map pool [| (fun () -> show ()) |] ~f:(fun f -> f ())).(0))
  in
  checks "identical on a pool" seq par

let test_no_faults_is_noop () =
  (* An empty schedule must leave the fault machinery entirely out of the
     path: no injector, no fault state (so no wals), and a report identical
     to the seed's fault-free behaviour. *)
  let params = { fault_params with Params.faults = Fault.empty } in
  let r, c = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  checkb "no injector" true (c.injector = None);
  checkb "no fault state" true (c.faults = None);
  checki "no crashes" 0 r.crashes;
  checki "no drops" 0 r.msg_drops

let () =
  Alcotest.run "fault"
    [
      ( "schedule",
        [
          Alcotest.test_case "spec parse" `Quick test_spec_parse;
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "partition spec and last_event" `Quick test_partition_spec;
          Alcotest.test_case "partition reachability" `Quick test_partition_reachability;
          Alcotest.test_case "synthetic" `Quick test_synthetic;
        ] );
      ( "injector",
        [
          Alcotest.test_case "down intervals" `Quick test_injector_down;
          Alcotest.test_case "transmit around downtime" `Quick test_transmit_around_downtime;
          Alcotest.test_case "transmit drop window" `Quick test_transmit_drop_window;
          Alcotest.test_case "network fifo across drops" `Quick test_network_fifo_across_drops;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "converges and serializable" `Quick test_crash_recovery_converges;
          Alcotest.test_case "deterministic" `Quick test_crash_recovery_deterministic;
          Alcotest.test_case "recovery drill ran" `Quick test_recovery_drill_ran;
          Alcotest.test_case "sweep deterministic across pools" `Quick
            test_fault_sweep_deterministic_across_pools;
          Alcotest.test_case "partition+crash+retry deterministic" `Quick
            test_partition_crash_retry_deterministic;
          Alcotest.test_case "no faults is a no-op" `Quick test_no_faults_is_noop;
        ] );
    ]
