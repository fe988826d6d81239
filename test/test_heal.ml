(* Tests for the self-healing stack: the φ-accrual detector's clamping and
   growth, Merkle-style digest narrowing, the corrupt@ fault clause, whole
   runs that crash the primary and recover with zero operator-scheduled
   restarts, corruption repair via anti-entropy, a crash landing mid
   reconfiguration state transfer, determinism across repeats and domain
   pools, and a QCheck chaos fuzz composing random crash + partition +
   reconfig + corrupt schedules that must stay serializable and converge. *)

module Detector = Repdb_heal.Detector
module Digest_tree = Repdb_heal.Digest_tree
module Fault = Repdb_fault.Fault
module Reconfig = Repdb_reconfig.Reconfig
module Params = Repdb_workload.Params
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Driver = Repdb.Driver
module Heal_exec = Repdb.Heal_exec

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* --- φ-accrual detector ----------------------------------------------------- *)

let test_detector_growth () =
  (* Perfectly regular heartbeats: μ settles at the period and φ crosses 8
     after ≈ 460 ms of silence (0.4343 · 460 / 25 ≈ 8). *)
  let d = Detector.create ~hb_every:25.0 ~now:0.0 () in
  for i = 1 to 30 do
    Detector.record d ~now:(float_of_int i *. 25.0)
  done;
  checkf "mean settles at the period" 25.0 (Detector.mean d);
  checki "arrivals counted" 30 (Detector.arrivals d);
  checkf "last arrival" 750.0 (Detector.last_arrival d);
  checkb "quiet right after a heartbeat" true (Detector.phi d ~now:751.0 < 0.1);
  checkb "still calm at one period" true (Detector.phi d ~now:775.0 < 1.0);
  checkb "suspicious after 460ms" true (Detector.phi d ~now:(750.0 +. 465.0) > 8.0);
  (* φ grows monotonically with silence. *)
  checkb "monotone" true
    (Detector.phi d ~now:900.0 < Detector.phi d ~now:1000.0
    && Detector.phi d ~now:1000.0 < Detector.phi d ~now:1200.0)

let test_detector_clamp () =
  (* An outage gap and the post-outage delivery burst are both clamped to
     [0.1, 10] periods, so neither poisons μ: after the site returns, φ
     recovers its pre-outage sensitivity within one window. *)
  let d = Detector.create ~hb_every:25.0 ~now:0.0 () in
  for i = 1 to 20 do
    Detector.record d ~now:(float_of_int i *. 25.0)
  done;
  (* 2 s outage, then the parked heartbeats all arrive nearly at once. *)
  Detector.record d ~now:2500.0;
  checkb "outage gap clamped to 10 periods" true (Detector.mean d <= 25.0 +. (250.0 /. 20.0));
  for i = 1 to 5 do
    Detector.record d ~now:(2500.0 +. (0.01 *. float_of_int i))
  done;
  checkb "burst gaps clamped from below" true (Detector.mean d >= 2.5);
  (* Once a full window of regular arrivals has flushed the clamped gaps,
     the estimate is back to normal. *)
  for i = 1 to 30 do
    Detector.record d ~now:(2600.0 +. (float_of_int i *. 25.0))
  done;
  checkf "recovered" 25.0 (Detector.mean d)

let test_detector_jitter_postpones () =
  (* A jittery link (alternating 10/90 ms gaps) raises μ and postpones
     suspicion proportionally — no false positives on noisy links. *)
  let d = Detector.create ~hb_every:25.0 ~now:0.0 () in
  let now = ref 0.0 in
  for i = 1 to 30 do
    now := !now +. (if i mod 2 = 0 then 10.0 else 90.0);
    Detector.record d ~now:!now
  done;
  checkb "mean reflects jitter" true (Detector.mean d > 40.0);
  (* The silence that fires on a quiet link stays calm here. *)
  checkb "465ms of silence is not enough" true (Detector.phi d ~now:(!now +. 465.0) < 8.0)

(* --- digest-tree narrowing -------------------------------------------------- *)

let test_chunk () =
  let c = Digest_tree.chunk ~fanout:4 [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  checki "four chunks" 4 (List.length c);
  Alcotest.(check (list (list int)))
    "contiguous, near-equal, order-preserving"
    [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10 ] ]
    c;
  checkb "empty" true (Digest_tree.chunk ~fanout:4 [] = []);
  checkb "short list is one chunk each" true (Digest_tree.chunk ~fanout:4 [ 1 ] = [ [ 1 ] ]);
  (match Digest_tree.chunk ~fanout:1 [ 1 ] with
  | _ -> Alcotest.fail "fanout=1 must be rejected"
  | exception Invalid_argument _ -> ())

let test_narrow () =
  (* Plant mismatches and count the callback traffic: narrowing must find
     exactly the planted set while checking far fewer items than a full
     scan. *)
  let items = List.init 256 (fun i -> i) in
  let bad = [ 17; 200 ] in
  let digest_calls = ref 0 and checked = ref 0 in
  let equal_digest chunk =
    incr digest_calls;
    not (List.exists (fun i -> List.mem i bad) chunk)
  in
  let check_items chunk =
    checked := !checked + List.length chunk;
    List.filter (fun i -> List.mem i bad) chunk
  in
  let found = Digest_tree.narrow ~fanout:4 ~leaf:8 ~equal_digest ~check_items items in
  Alcotest.(check (list int)) "exactly the planted mismatches" bad (List.sort compare found);
  checkb "leaf checks stayed local" true (!checked <= 2 * 8);
  checkb "digest rounds bounded by the tree" true
    (!digest_calls <= 2 * 4 * Digest_tree.depth ~fanout:4 ~leaf:8 256);
  (* Equal replicas: one root digest, zero item checks. *)
  digest_calls := 0;
  checked := 0;
  checkb "clean pair narrows to nothing" true
    (Digest_tree.narrow ~fanout:4 ~leaf:8
       ~equal_digest:(fun _ -> incr digest_calls; true)
       ~check_items:(fun c -> checked := !checked + List.length c; c)
       items
    = []);
  checkb "one digest round for a clean pair" true (!digest_calls <= 4);
  checki "no item checks for a clean pair" 0 !checked

let test_depth () =
  checki "256 items, fanout 4, leaf 8" 3 (Digest_tree.depth ~fanout:4 ~leaf:8 256);
  checki "under the leaf" 0 (Digest_tree.depth ~fanout:4 ~leaf:8 8);
  checkb "monotone in n" true
    (Digest_tree.depth ~fanout:4 ~leaf:8 64 <= Digest_tree.depth ~fanout:4 ~leaf:8 4096)

(* --- corrupt@ fault clause -------------------------------------------------- *)

let parse spec =
  match Fault.of_string spec with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec %S did not parse: %s" spec m

let test_corrupt_spec () =
  let s = parse "corrupt@600:site=2,p=0.3;crash@100:site=1" in
  (match s.corruptions with
  | [ c ] ->
      checki "site" 2 c.c_site;
      checkf "at" 600.0 c.c_at;
      checkf "p" 0.3 c.c_prob
  | _ -> Alcotest.fail "expected one corruption");
  checkb "round-trips" true (s = parse (Fault.to_string s));
  checkf "last event covers the corruption" 600.0 (Fault.last_event s);
  let bad spec =
    match Fault.of_string spec with
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
    | Error _ -> ()
  in
  bad "corrupt@600:site=2" (* missing p *);
  bad "corrupt@x:site=2,p=0.3";
  let invalid spec =
    match Fault.validate ~n_sites:3 (parse spec) with
    | () -> Alcotest.failf "%S should not validate" spec
    | exception Invalid_argument _ -> ()
  in
  invalid "corrupt@600:site=5,p=0.3" (* site out of range *);
  invalid "corrupt@600:site=1,p=0" (* p in (0,1] *);
  invalid "corrupt@600:site=1,p=1.5";
  invalid "corrupt@-5:site=1,p=0.5";
  (* A corrupt clause without healing is an operator error: nothing else can
     even see the damage. *)
  match
    Params.validate
      { Params.default with faults = parse "corrupt@600:site=2,p=0.3"; heal = false }
  with
  | () -> Alcotest.fail "corrupt without --heal should not validate"
  | exception Invalid_argument _ -> ()

let test_synthetic_corruptions () =
  let s = Fault.synthetic ~n_sites:5 ~seed:42 ~n_crashes:1 ~n_corruptions:3 () in
  checki "three corruptions" 3 (List.length s.corruptions);
  Fault.validate ~n_sites:5 s;
  checkb "deterministic in the seed" true
    (s = Fault.synthetic ~n_sites:5 ~seed:42 ~n_crashes:1 ~n_corruptions:3 ())

(* --- live self-healing runs ------------------------------------------------- *)

(* Crash one site for 800 ms mid-workload: long enough for the φ = 8 /
   25 ms-heartbeat detector (≈ 460 ms of silence) to fire while the site is
   still down, so a real failover and a later rejoin both happen. *)
let heal_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 40;
    threads_per_site = 2;
    txns_per_thread = 60;
    backedge_prob = 0.2;
    record_history = true;
    heal = true;
    txn_deadline = 400.0;
    retry = Params.default_backoff;
    faults =
      (match Fault.of_string "crash@400:site=1,down=800" with
      | Ok s -> s
      | Error m -> failwith m);
  }

let run_report ?(params = heal_params) protocol =
  let c = Repdb.Cluster.create params in
  (Driver.run_on c protocol, c)

let heal_of (r : Driver.report) =
  match r.heal with Some h -> h | None -> Alcotest.fail "no healing summary in the report"

let is_serializable (r : Driver.report) =
  match r.serializability with
  | Some Repdb_txn.Serializability.Serializable -> true
  | Some _ -> false
  | None -> Alcotest.fail "history was not recorded"

let test_failover_convergence () =
  (* The acceptance scenario: crash the primary with healing on; the run must
     detect, fail over, rejoin and converge with zero operator-scheduled
     restarts — the fault schedule contains the crash and nothing else. *)
  let r, _ = run_report (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  let h = heal_of r in
  checkb "site was suspected" true (h.suspicions >= 1);
  checki "no false suspicions" 0 h.false_suspicions;
  checkb "failover executed" true (h.failovers >= 1);
  checkb "items were promoted" true (h.promoted_items >= 1);
  checkb "site rejoined" true (h.rejoins >= 1);
  checki "no incident left open" 0 h.incidents_open;
  checkb "mttr measured" true (h.mttr_mean > 0.0 && h.mttr_max >= h.mttr_mean);
  checkb "failover cost measured" true (h.failover_mean > 0.0);
  checkb "serializable across the failover epoch" true (is_serializable r);
  (match r.divergent with
  | Some [] -> ()
  | Some d -> Alcotest.failf "%d divergent copies after self-healing" (List.length d)
  | None -> Alcotest.fail "no convergence check ran");
  let p = heal_params in
  (* Retries make attempts exceed the nominal count; no txn may vanish. *)
  checkb "every attempt accounted" true
    (r.summary.commits + r.summary.aborts
    >= p.Params.n_sites * p.threads_per_site * p.txns_per_thread)

(* Site 1 crashes twice; the second suspicion's promotion declines (every
   item it primaried already moved away), so that switch is no failover and
   must not reach the failover count, the mean or the heal.failover
   histogram. *)
let test_declined_failover_not_counted () =
  let params =
    {
      Params.default with
      backedge_prob = 0.0;
      txns_per_thread = 200;
      heal = true;
      txn_deadline = 400.0;
      retry = Params.default_backoff;
      faults =
        (match Fault.of_string "crash@400:site=1,down=800;crash@2500:site=1,down=800" with
        | Ok s -> s
        | Error m -> failwith m);
    }
  in
  let r, _ = run_report ~params (module Repdb.Dag_wt : Repdb.Protocol.S) in
  let h = heal_of r in
  let hist = Repdb_obs.Stats.histogram r.site_stats "heal.failover" in
  let n = Repdb_obs.Stats.histogram_count hist ~site:1 in
  checki "one failover" 1 h.failovers;
  checki "histogram count = failovers" h.failovers n;
  checkf "histogram mean = failover mean" h.failover_mean
    (Repdb_obs.Stats.histogram_mean hist ~site:1)

let test_corruption_repair () =
  (* Scramble every replica copy at one site; anti-entropy must find and
     repair all of them (the final sweep is the backstop), leaving no
     corruption marks and fully converged stores. *)
  let params =
    {
      heal_params with
      Params.replication_prob = 0.5;
      faults =
        (match Fault.of_string "corrupt@200:site=2,p=1" with
        | Ok s -> s
        | Error m -> failwith m);
    }
  in
  let r, c = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
  let h = heal_of r in
  checki "one corruption event" 1 h.corruption_events;
  checkb "copies were scrambled" true (h.corrupt_items >= 1);
  checkb "repairs shipped" true (h.repaired_items >= 1);
  checki "all corruption marks cleared" 0 (Hashtbl.length c.corrupted);
  checki "no suspicion from corruption alone" 0 h.suspicions;
  match r.divergent with
  | Some [] -> ()
  | Some d -> Alcotest.failf "%d divergent copies after repair" (List.length d)
  | None -> Alcotest.fail "no convergence check ran"

let test_heal_deterministic () =
  (* Byte-identical reports (healing summary included) across repeats and on
     a domain pool: the detector matrix, heartbeat fibers and repair sessions
     all run on simulated time. *)
  let show () =
    let r, _ = run_report (module Repdb.Backedge_proto : Repdb.Protocol.S) in
    Fmt.str "%a" Driver.pp_report r
  in
  let seq = show () in
  checks "identical across repeats" seq (show ());
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        (Repdb_par.Pool.map pool [| (fun () -> show ()) |] ~f:(fun f -> f ())).(0))
  in
  checks "identical on a pool" seq par

let test_sweep_heal_deterministic_across_pools () =
  let base = { heal_params with Params.txns_per_thread = 8; faults = Fault.empty } in
  let seq = Repdb.Experiment.to_csv (Repdb.Experiment.sweep_heal ~base ()) in
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        Repdb.Experiment.to_csv (Repdb.Experiment.sweep_heal ~pool ~base ()))
  in
  checks "sequential = pooled" seq par

(* --- crash mid reconfiguration state transfer -------------------------------- *)

let test_crash_mid_state_transfer () =
  (* Start from zero replication so the add@ step's state transfer is the
     only way the new replica gets its bytes, and crash the destination the
     moment the transfer is due. The WAL must replay whatever slice of the
     transfer landed before the crash, the retransmitting links deliver the
     rest after restart, and the run converges — byte-identically across
     repeats and on a domain pool. *)
  let params =
    {
      heal_params with
      Params.replication_prob = 0.0;
      faults =
        (match Fault.of_string "crash@55:site=3,down=120" with
        | Ok s -> s
        | Error m -> failwith m);
      reconfig =
        (match Reconfig.of_string "add@50:item=2,site=3" with
        | Ok p -> p
        | Error m -> failwith m);
    }
  in
  let show () =
    let r, c = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
    (Fmt.str "%a" Driver.pp_report r, r, c)
  in
  let s1, r, c = show () in
  checki "switch executed" 1 r.reconfigs;
  checki "state transfer ran" 1 r.state_transfers;
  checki "crash executed" 1 r.crashes;
  checkb "replica created" true (Array.mem 3 c.placement.replicas.(2));
  checkb "transferred item converged" true
    (Value.equal (Store.read c.stores.(2) 2) (Store.read c.stores.(3) 2));
  (match r.divergent with
  | Some [] -> ()
  | Some d -> Alcotest.failf "%d divergent copies" (List.length d)
  | None -> Alcotest.fail "no convergence check ran");
  (* The WAL replays the partial transfer: a fresh recovery of the crashed
     destination reproduces its final store, transferred item included. *)
  checkb "wal replay reproduces the store" true
    (Store.contents (Repdb_store.Wal.recover c.wals.(3) ~site:3)
    = Store.contents c.stores.(3));
  let s1', _, _ = show () in
  checks "byte-identical across repeats" s1 s1';
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        (Repdb_par.Pool.map pool [| (fun () -> let s, _, _ = show () in s) |] ~f:(fun f -> f ())).(0))
  in
  checks "byte-identical on a pool" s1 par

(* --- chaos fuzz --------------------------------------------------------------- *)

(* Compose a random crash + corrupt + partition + reconfig schedule from the
   synthetic generators, run it with healing on, and require the full
   robustness contract: one-copy serializable, converged, every attempt
   accounted. QCheck shrinks the four knobs toward the minimal failing
   schedule; the printer shows the offending spec strings verbatim so a
   failure is reproducible from the CLI. *)
let chaos_sites = 4
let chaos_items = 40

let chaos_faults (seed, n_crashes, n_corruptions, with_partition) =
  let s =
    Fault.synthetic ~n_sites:chaos_sites ~seed:(1 + seed) ~n_crashes ~n_corruptions
      ~mean_downtime:200.0 ~window:(100.0, 800.0) ()
  in
  if with_partition then
    { s with Fault.partitions = (parse "partition@150-400:groups=0.1|2.3").partitions }
  else s

let chaos_reconfig (seed, n_steps) =
  Reconfig.synthetic ~n_sites:chaos_sites ~n_items:chaos_items ~seed:(1 + seed) ~n_steps ()

let chaos_print ((seed, n_crashes, n_corruptions), (with_partition, n_steps)) =
  let faults = chaos_faults (seed, n_crashes, n_corruptions, with_partition) in
  Printf.sprintf "seed=%d faults=%S reconfig=%S" seed (Fault.to_string faults)
    (Reconfig.to_string (chaos_reconfig (seed, n_steps)))

let test_chaos_fuzz =
  let gen =
    QCheck.(
      make
        ~print:chaos_print
        ~shrink:
          Shrink.(
            pair (triple int int int) (pair (fun _ -> Iter.empty) int))
        Gen.(
          pair
            (triple (int_bound 1000) (int_bound 2) (int_bound 2))
            (pair bool (int_bound 3))))
  in
  QCheck.Test.make ~name:"random crash+partition+reconfig+corrupt schedules self-heal" ~count:6
    gen
    (fun ((seed, n_crashes, n_corruptions), (with_partition, n_steps)) ->
      let faults = chaos_faults (seed, n_crashes, n_corruptions, with_partition) in
      Fault.validate ~n_sites:chaos_sites faults;
      let reconfig = chaos_reconfig (seed, n_steps) in
      Reconfig.validate ~n_sites:chaos_sites ~n_items:chaos_items reconfig;
      let params =
        { heal_params with Params.n_items = chaos_items; txns_per_thread = 40; faults; reconfig }
      in
      let r, _ = run_report ~params (module Repdb.Backedge_proto : Repdb.Protocol.S) in
      let (_ : Heal_exec.summary) = heal_of r in
      let total = params.Params.n_sites * params.threads_per_site * params.txns_per_thread in
      is_serializable r
      && r.divergent = Some []
      && r.summary.commits + r.summary.aborts >= total)

let () =
  Alcotest.run "heal"
    [
      ( "detector",
        [
          Alcotest.test_case "phi growth" `Quick test_detector_growth;
          Alcotest.test_case "clamping and burst immunity" `Quick test_detector_clamp;
          Alcotest.test_case "jitter postpones suspicion" `Quick test_detector_jitter_postpones;
        ] );
      ( "digest-tree",
        [
          Alcotest.test_case "chunk" `Quick test_chunk;
          Alcotest.test_case "narrow" `Quick test_narrow;
          Alcotest.test_case "depth" `Quick test_depth;
        ] );
      ( "spec",
        [
          Alcotest.test_case "corrupt clause" `Quick test_corrupt_spec;
          Alcotest.test_case "synthetic corruptions" `Quick test_synthetic_corruptions;
        ] );
      ( "live",
        [
          Alcotest.test_case "failover converges, zero restarts" `Quick test_failover_convergence;
          Alcotest.test_case "declined failover not counted" `Quick
            test_declined_failover_not_counted;
          Alcotest.test_case "corruption repaired" `Quick test_corruption_repair;
          Alcotest.test_case "deterministic" `Quick test_heal_deterministic;
          Alcotest.test_case "sweep deterministic across pools" `Quick
            test_sweep_heal_deterministic_across_pools;
          Alcotest.test_case "crash mid state transfer" `Quick test_crash_mid_state_transfer;
        ] );
      (* Pinned RNG: every chaos schedule is a full simulation, so keep the
         drawn inputs identical from run to run (each input is itself
         deterministic). *)
      ( "chaos",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) test_chaos_fuzz ] );
    ]
