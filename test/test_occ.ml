(* Tests for the optimistic subsystem: the registry as single source of
   truth, Validator and Conflict_tracker units (write skew, first committer
   wins, stale reads), a QCheck property pinning the SSI dangerous-structure
   detector against brute-force multi-version serialization-graph acyclicity,
   both protocols surviving combined faults + partition + reconfiguration
   with 1SR and convergence intact (byte-identically across repeats), ssi
   finishing serializable under deadlines short enough to expire before a
   remote certification is sent, and the occ sweep's determinism and
   expected optimistic-vs-locking crossover. *)

module Params = Repdb_workload.Params
module Txn = Repdb_txn.Txn
module Validator = Repdb_occ.Validator
module Tracker = Repdb_occ.Conflict_tracker
module Digraph = Repdb_graph.Digraph

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- registry: single source of truth ------------------------------------- *)

let test_registry () =
  (* [entries] drives `repdb protocols`, the `--protocol` lookup and the docs
     table; [all] must be exactly its protocol column, and the optimistic
     protocols must be registered, findable and cyclic-safe. *)
  checkb "all = map fst entries" true
    (List.map fst Repdb.Registry.entries == Repdb.Registry.all
    || List.length Repdb.Registry.entries = List.length Repdb.Registry.all
       && List.for_all2
            (fun (p, _) q -> Repdb.Protocol.name p = Repdb.Protocol.name q)
            Repdb.Registry.entries Repdb.Registry.all);
  List.iter
    (fun name ->
      checkb (name ^ " registered") true (List.mem name Repdb.Registry.names);
      (match Repdb.Registry.find name with
      | Some p -> checks (name ^ " find") name (Repdb.Protocol.name p)
      | None -> Alcotest.failf "%s not found" name);
      checkb
        (name ^ " cyclic-safe")
        true
        (List.exists (fun p -> Repdb.Protocol.name p = name) Repdb.Registry.cyclic_safe))
    [ "occ-epoch"; "ssi" ];
  List.iter
    (fun ((_ : Repdb.Protocol.t), doc) -> checkb "entry documented" true (String.length doc > 0))
    Repdb.Registry.entries;
  checki "describe covers entries"
    (List.length Repdb.Registry.entries)
    (List.length (Repdb.Registry.describe ()))

(* --- validator units ------------------------------------------------------- *)

let test_validator () =
  let v = Validator.create () in
  (* Clean pass bumps the write set's versions. *)
  (match Validator.validate v { gid = 1; reads = [ (0, 0); (1, 0) ]; writes = [ 1 ] } with
  | Some [ (1, 1) ] -> ()
  | Some w -> Alcotest.failf "unexpected writes %d" (List.length w)
  | None -> Alcotest.fail "clean txn rejected");
  checki "latest bumped" 1 (Validator.latest v 1);
  (* A read of the overwritten version is now stale. *)
  (match Validator.validate v { gid = 2; reads = [ (1, 0) ]; writes = [ 0 ] } with
  | None -> ()
  | Some _ -> Alcotest.fail "stale read validated");
  checki "rejection untouched the table" 0 (Validator.latest v 0);
  (* Re-reading the current version passes again. *)
  (match Validator.validate v { gid = 3; reads = [ (1, 1) ]; writes = [] } with
  | Some [] -> ()
  | _ -> Alcotest.fail "current read rejected");
  checki "validated" 2 (Validator.validated v);
  checki "rejected" 1 (Validator.rejected v)

(* --- conflict tracker units ------------------------------------------------ *)

let test_tracker_first_committer_wins () =
  let t = Tracker.create () in
  Tracker.begin_txn t ~gid:1 ~begin_ts:0.0;
  Tracker.begin_txn t ~gid:2 ~begin_ts:0.0;
  (match Tracker.certify t ~now:1.0 { gid = 1; begin_ts = 0.0; reads = []; writes = [ 7 ] } with
  | Tracker.Commit { writes = [ (7, 1) ]; _ } -> ()
  | _ -> Alcotest.fail "first writer should commit");
  (* Concurrent (began before gid 1 committed) overlapping write set. *)
  match Tracker.certify t ~now:2.0 { gid = 2; begin_ts = 0.0; reads = []; writes = [ 7 ] } with
  | Tracker.Abort Tracker.Ww_conflict -> ()
  | _ -> Alcotest.fail "second committer should lose"

let test_tracker_stale_read () =
  let t = Tracker.create () in
  Tracker.begin_txn t ~gid:1 ~begin_ts:0.0;
  (match Tracker.certify t ~now:1.0 { gid = 1; begin_ts = 0.0; reads = []; writes = [ 3 ] } with
  | Tracker.Commit _ -> ()
  | _ -> Alcotest.fail "writer should commit");
  (* Begins after the commit but read the old version: a lagging replica. *)
  Tracker.begin_txn t ~gid:2 ~begin_ts:2.0;
  match Tracker.certify t ~now:3.0 { gid = 2; begin_ts = 2.0; reads = [ (3, 0) ]; writes = [] } with
  | Tracker.Abort Tracker.Stale_read -> ()
  | _ -> Alcotest.fail "stale snapshot read should abort"

let test_tracker_write_skew () =
  (* The classic SI write skew: T1 reads {x,y} writes x, T2 reads {x,y}
     writes y, fully concurrent. Each is an rw-antidependency of the other —
     whichever certifies second is the pivot and must abort. *)
  let t = Tracker.create () in
  Tracker.begin_txn t ~gid:1 ~begin_ts:0.0;
  Tracker.begin_txn t ~gid:2 ~begin_ts:0.0;
  (match
     Tracker.certify t ~now:1.0
       { gid = 1; begin_ts = 0.0; reads = [ (0, 0); (1, 0) ]; writes = [ 0 ] }
   with
  | Tracker.Commit _ -> ()
  | _ -> Alcotest.fail "T1 should commit");
  (match
     Tracker.certify t ~now:2.0
       { gid = 2; begin_ts = 0.0; reads = [ (0, 0); (1, 0) ]; writes = [ 1 ] }
   with
  | Tracker.Abort Tracker.Dangerous -> ()
  | v ->
      Alcotest.failf "T2 should abort dangerous, got %s"
        (match v with
        | Tracker.Commit _ -> "commit"
        | Tracker.Abort Tracker.Stale_read -> "stale"
        | Tracker.Abort Tracker.Ww_conflict -> "ww"
        | Tracker.Abort Tracker.Dangerous -> "dangerous"));
  checki "dangerous abort counted" 1 (Tracker.dangerous_aborts t)

(* --- QCheck: certifier soundness vs brute-force MVSG acyclicity ------------

   Random small histories: transactions begin at staggered timestamps, read
   the true snapshot of an oracle (what a correct multi-version store would
   serve), and certify in commit order. Whatever subset the tracker commits
   must have an acyclic multi-version serialization graph (ww on consecutive
   installed versions, wr from writer to reader, rw from reader to the next
   version's writer) — i.e. the dangerous-structure rule may be
   conservative, but it never lets a cycle commit. *)

let mvsg_acyclic ~n_items committed =
  (* committed: (gid, reads=(item,version) list, writes=(item,version) list),
     gids 1-based; version 0 is the initial state (no writer vertex). *)
  let n = List.fold_left (fun a (g, _, _) -> max a g) 0 committed in
  let g = Digraph.create (n + 1) in
  for item = 0 to n_items - 1 do
    let writer_of = Hashtbl.create 8 and readers_of = Hashtbl.create 8 in
    List.iter
      (fun (gid, reads, writes) ->
        List.iter (fun (i, v) -> if i = item then Hashtbl.replace writer_of v gid) writes;
        List.iter
          (fun (i, v) ->
            if i = item then
              Hashtbl.replace readers_of v (gid :: Option.value ~default:[] (Hashtbl.find_opt readers_of v)))
          reads)
      committed;
    let versions = List.sort_uniq compare (Hashtbl.fold (fun v _ acc -> v :: acc) writer_of []) in
    (* ww edges between consecutive installed versions. *)
    let rec ww = function
      | a :: (b :: _ as rest) ->
          Digraph.add_edge g (Hashtbl.find writer_of a) (Hashtbl.find writer_of b);
          ww rest
      | _ -> ()
    in
    ww versions;
    (* wr and rw edges per read. *)
    Hashtbl.iter
      (fun v readers ->
        (match Hashtbl.find_opt writer_of v with
        | Some w -> List.iter (fun r -> if r <> w then Digraph.add_edge g w r) readers
        | None -> ());
        match List.find_opt (fun v' -> v' > v) versions with
        | Some v' ->
            let w' = Hashtbl.find writer_of v' in
            List.iter (fun r -> if r <> w' then Digraph.add_edge g r w') readers
        | None -> ())
      readers_of
  done;
  Digraph.find_cycle g = None

let history_gen =
  (* Per txn: (begin lag, read mask, write mask) over 3 items, 2..6 txns. *)
  QCheck.Gen.(
    list_size (int_range 2 6) (triple (int_range 0 3) (int_range 0 7) (int_range 0 7)))

let test_certifier_sound =
  QCheck.Test.make ~count:500 ~name:"certified subset has acyclic MVSG"
    (QCheck.make history_gen) (fun txns ->
      let n_items = 3 in
      let t = Tracker.create () in
      (* Oracle: per item, committed (version, commit_ts) newest last. *)
      let oracle = Array.make n_items [ (0, neg_infinity) ] in
      let snapshot_read item ts =
        let rec last acc = function
          | (v, cts) :: rest when cts <= ts -> last (Some v) rest
          | _ -> acc
        in
        match last None oracle.(item) with Some v -> v | None -> 0
      in
      let committed = ref [] in
      List.iteri
        (fun i (lag, rmask, wmask) ->
          let gid = i + 1 in
          let now = float_of_int (i + 1) in
          let begin_ts = Float.max 0.0 (now -. 0.5 -. float_of_int lag) in
          Tracker.begin_txn t ~gid ~begin_ts;
          let items mask = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2 ] in
          let reads = List.map (fun i -> (i, snapshot_read i begin_ts)) (items rmask) in
          let writes = items wmask in
          match Tracker.certify t ~now { gid; begin_ts; reads; writes } with
          | Tracker.Commit { commit_ts; writes } ->
              List.iter (fun (i, v) -> oracle.(i) <- oracle.(i) @ [ (v, commit_ts) ]) writes;
              committed := (gid, reads, writes) :: !committed
          | Tracker.Abort _ -> ())
        txns;
      mvsg_acyclic ~n_items !committed)

(* --- full harness: combined faults + partition + reconfig ------------------ *)

let combined_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 24;
    threads_per_site = 2;
    txns_per_thread = 8;
    backedge_prob = 0.0;
    record_history = true;
    txn_deadline = 200.0;
    retry = Params.default_backoff;
    faults =
      (match
         Repdb_fault.Fault.of_string
           "crash@300:site=1,down=300;partition@600-900:groups=0.1|2.3;rto=5"
       with
      | Ok s -> s
      | Error m -> failwith m);
    reconfig =
      (match Repdb_reconfig.Reconfig.of_string "add@100:item=3,site=2;rebalance@1200:from=3,to=0" with
      | Ok s -> s
      | Error m -> failwith m);
  }

let test_combined_survival () =
  List.iter
    (fun name ->
      let protocol = Option.get (Repdb.Registry.find name) in
      let r = Repdb.Driver.run combined_params protocol in
      checkb (name ^ ": committed work") true (r.summary.commits > 0);
      checki (name ^ ": crash injected") 1 r.crashes;
      checkb (name ^ ": partition activated") true (r.partitions > 0);
      checki (name ^ ": reconfigs executed") 2 r.reconfigs;
      (match r.serializability with
      | Some Repdb_txn.Serializability.Serializable -> ()
      | Some _ -> Alcotest.failf "%s: not serializable under combined faults" name
      | None -> Alcotest.failf "%s: no serializability verdict" name);
      match r.divergent with
      | Some [] -> ()
      | Some d -> Alcotest.failf "%s: %d divergent copies" name (List.length d)
      | None -> Alcotest.failf "%s: no convergence check ran" name)
    [ "occ-epoch"; "ssi" ]

let test_combined_deterministic () =
  (* Byte-identical pretty-printed reports across repeats under the combined
     fault + partition + reconfig schedule. *)
  List.iter
    (fun name ->
      let protocol = Option.get (Repdb.Registry.find name) in
      let show () = Fmt.str "%a" Repdb.Driver.pp_report (Repdb.Driver.run combined_params protocol) in
      checks (name ^ ": identical across repeats") (show ()) (show ()))
    [ "occ-epoch"; "ssi" ]

(* --- ssi under short deadlines ----------------------------------------------- *)

(* A deadline can pass while an ssi attempt waits for the CPU to send its
   remote Certify. Such an attempt used to arm its reply timer in the past
   and stop the run with [Sim.Stuck]; it now aborts before sending, with its
   certifier registration withdrawn. Default params are
   `repdb run -p ssi --deadline D --txns 30 --seed S`. *)
let test_ssi_short_deadline () =
  let ssi = Option.get (Repdb.Registry.find "ssi") in
  List.iter
    (fun deadline ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "deadline %g, seed %d" deadline seed in
          let r =
            Repdb.Driver.run
              { Params.default with txn_deadline = deadline; txns_per_thread = 30; seed;
                record_history = true }
              ssi
          in
          checkb (what ^ ": deadline aborts") true
            (List.assoc_opt Txn.Deadline_exceeded r.summary.aborts_by_reason <> None);
          (match r.serializability with
          | Some Repdb_txn.Serializability.Serializable -> ()
          | _ -> Alcotest.failf "%s: not serializable" what);
          match r.divergent with
          | Some [] -> ()
          | _ -> Alcotest.failf "%s: replicas diverge" what)
        [ 1; 2; 3 ])
    [ 5.0; 10.0 ]

(* --- occ sweep: determinism and the optimistic-vs-locking crossover -------- *)

let sweep_base =
  { Params.default with n_sites = 4; n_items = 200; threads_per_site = 3; txns_per_thread = 8 }

let test_sweep_csv_identical () =
  let seq = Experiments.output "occ" sweep_base in
  checks "identical across repeats" seq
    (Experiments.output "occ" sweep_base);
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        Experiments.output ~pool "occ" sweep_base)
  in
  checks "identical across -j levels" seq par

let test_sweep_crossover () =
  let fig = Experiments.figure "occ" sweep_base in
  let report ~x ~proto =
    let pt = List.find (fun (p : Repdb.Experiment.point) -> p.x = x) fig.points in
    List.assoc proto pt.reports
  in
  let reason (r : Repdb.Driver.report) reason =
    match List.assoc_opt reason r.summary.aborts_by_reason with Some n -> n | None -> 0
  in
  let lo = report ~x:0.0 ~proto:"occ-epoch" and hi = report ~x:0.99 ~proto:"occ-epoch" in
  (* Zipf skew concentrates the read/write sets: validation aborts rise. *)
  checkb "occ-epoch validation aborts rise with skew" true
    (reason hi Txn.Validation_failed > reason lo Txn.Validation_failed);
  (* The ssi certifier pays in its own currencies under skew. *)
  let shi = report ~x:0.99 ~proto:"ssi" in
  checkb "ssi optimistic aborts present under skew" true
    (reason shi Txn.First_committer_lost + reason shi Txn.Dangerous_structure > 0);
  (* Crossover against lock-based PSL: optimistic wins per-site throughput
     at uniform access, locking wins under heavy skew. *)
  let psl_lo = report ~x:0.0 ~proto:"psl" and psl_hi = report ~x:0.99 ~proto:"psl" in
  checkb "optimistic wins at low contention" true
    (lo.summary.throughput_per_site > psl_lo.summary.throughput_per_site);
  checkb "locking wins under heavy skew" true
    (psl_hi.summary.throughput_per_site > hi.summary.throughput_per_site);
  (* Lock-based protocols never abort on validation. *)
  checki "psl has no validation aborts" 0 (reason psl_hi Txn.Validation_failed)

let () =
  Alcotest.run "occ"
    [
      ("registry", [ Alcotest.test_case "single source of truth" `Quick test_registry ]);
      ( "validator",
        [ Alcotest.test_case "backward validation" `Quick test_validator ] );
      ( "tracker",
        [
          Alcotest.test_case "first committer wins" `Quick test_tracker_first_committer_wins;
          Alcotest.test_case "stale read" `Quick test_tracker_stale_read;
          Alcotest.test_case "write skew aborts" `Quick test_tracker_write_skew;
          QCheck_alcotest.to_alcotest test_certifier_sound;
        ] );
      ( "harness",
        [
          Alcotest.test_case "combined faults survival" `Quick test_combined_survival;
          Alcotest.test_case "combined faults deterministic" `Quick test_combined_deterministic;
          Alcotest.test_case "ssi short deadlines" `Quick test_ssi_short_deadline;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "csv identical" `Slow test_sweep_csv_identical;
          Alcotest.test_case "crossover" `Slow test_sweep_crossover;
        ] );
    ]
