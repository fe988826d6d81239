(* Tests for the time-series telemetry layer: timeline sampling validation,
   byte-identical CSV determinism under combined faults + partition +
   reconfiguration (across repeats and across domain pools), replication-lag
   sanity during a partition, span phase attribution, telemetry transparency
   (timeline sampling and tracing on must not perturb the simulated result),
   and the report renderer round trip. *)

module Params = Repdb_workload.Params
module Timeline = Repdb_obs.Timeline
module Report = Repdb_obs.Report
module Stats = Repdb_obs.Stats
module Driver = Repdb.Driver
module Experiment = Repdb.Experiment

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

let find_protocol name =
  match Repdb.Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "protocol %s not registered" name

let parse_faults spec =
  match Repdb_fault.Fault.of_string spec with Ok s -> s | Error m -> failwith m

let parse_plan spec =
  match Repdb_reconfig.Reconfig.of_string spec with Ok p -> p | Error m -> failwith m

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- timeline storage ------------------------------------------------------- *)

let test_timeline_validation () =
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Timeline.create: interval must be positive and finite") (fun () ->
      ignore (Timeline.create ~n_sites:2 ~interval:0.0 ()));
  Alcotest.check_raises "no sites"
    (Invalid_argument "Timeline.create: need at least one site") (fun () ->
      ignore (Timeline.create ~n_sites:0 ~interval:100.0 ()));
  let tl = Timeline.create ~n_sites:2 ~interval:100.0 () in
  let row n =
    {
      Timeline.r_time = 0.0;
      r_active = 0;
      r_inflight = 0;
      r_commits = Array.make n 0;
      r_aborts = Array.make 2 0;
      r_lag = Array.make 2 0.0;
      r_pending = Array.make 2 0;
      r_locks = Array.make 2 0;
      r_waiters = Array.make 2 0;
      r_phi = [||];
    }
  in
  Alcotest.check_raises "wrong arity rejected"
    (Invalid_argument "Timeline.push: commits has 3 entries for 2 sites") (fun () ->
      Timeline.push tl (row 3));
  checki "rejected row not stored" 0 (Timeline.length tl);
  Timeline.push tl (row 2);
  checki "valid row stored" 1 (Timeline.length tl)

(* --- determinism ------------------------------------------------------------ *)

(* A run with everything on at once: a partition splitting the cluster, a
   crash inside the partition window, a mid-run reconfiguration step, plus
   deadlines and backoff retry to ride it all out. A 4x2x12 run finishes in
   well under 100 simulated ms when unobstructed, so the windows start
   almost immediately to be sure they land mid-workload. *)
let chaos_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 40;
    (* dag-wt runs too, so the copy graph must be a DAG by construction
       rather than by luck of the placement stream. *)
    backedge_prob = 0.0;
    threads_per_site = 2;
    txns_per_thread = 12;
    txn_deadline = 200.0;
    retry = Params.default_backoff;
    faults = parse_faults "partition@10-300:groups=0.1|2.3;crash@150:site=3,down=100";
    reconfig = parse_plan "add@30:item=2,site=3";
    timeline_every = 50.0;
  }

let run_csv ?(params = chaos_params) name =
  match (Driver.run params (find_protocol name)).timeline with
  | Some tl -> Timeline.to_csv_string tl
  | None -> Alcotest.failf "%s: no timeline despite timeline_every > 0" name

let test_run_csv_identical () =
  List.iter
    (fun name -> checks (name ^ " identical across repeats") (run_csv name) (run_csv name))
    [ "psl"; "backedge"; "dag-wt" ]

let render_files files =
  String.concat "\n"
    (List.map (fun (name, tl) -> name ^ "\n" ^ Timeline.to_csv_string tl) files)

let test_sweep_timelines_identical () =
  (* Acceptance: experiment-collected timelines are byte-identical across
     repeats and across -j levels, like the sweep CSVs themselves. *)
  let base =
    {
      Params.default with
      n_sites = 4;
      n_items = 24;
      threads_per_site = 1;
      txns_per_thread = 6;
      timeline_every = 50.0;
    }
  in
  let collect ?pool () =
    render_files
      (Experiment.timeline_files (Experiments.run ?pool "partition" base))
  in
  let seq = collect () in
  checkb "sweep collected timelines" true (String.length seq > 0);
  checks "identical across repeats" seq (collect ());
  let par = Repdb_par.Pool.with_pool ~domains:2 (fun pool -> collect ~pool ()) in
  checks "identical across -j levels" seq par

(* --- replication lag -------------------------------------------------------- *)

let lag_rows csv =
  match Report.parse csv with
  | Error m -> Alcotest.failf "report parse failed: %s" m
  | Ok r ->
      let sites = Report.site_columns r "lag_ms" in
      checkb "lag series per site" true (List.length sites > 0);
      sites

let test_lag_rises_and_drains () =
  (* BackEdge under a partition: updates destined for the cut-off half pile
     up, so some site's lag must grow during the window — and once the heal
     lets propagation drain, the final sample must be caught up again. *)
  let sites = lag_rows (run_csv "backedge") in
  let peak =
    List.fold_left
      (fun acc (_, series) -> List.fold_left Float.max acc series)
      0.0 sites
  in
  checkb "lag observed during the partition" true (peak > 0.0);
  List.iter
    (fun (site, series) ->
      checkf (Printf.sprintf "site %d drains by quiescence" site) 0.0
        (List.nth series (List.length series - 1)))
    sites

let test_psl_lag_zero () =
  (* PSL never propagates (replicas stay virtual), so its lag is identically
     zero everywhere — the timeline must agree. *)
  let sites = lag_rows (run_csv "psl") in
  List.iter
    (fun (site, series) ->
      List.iter (checkf (Printf.sprintf "site %d lag stays 0" site) 0.0) series)
    sites

(* --- span phase attribution ------------------------------------------------- *)

let span_count (r : Driver.report) name =
  let h = Stats.histogram r.site_stats name in
  let n = ref 0 in
  for s = 0 to Stats.n_sites r.site_stats - 1 do
    n := !n + Stats.histogram_count h ~site:s
  done;
  !n

let span_total (r : Driver.report) name =
  let h = Stats.histogram r.site_stats name in
  let sum = ref 0.0 in
  for s = 0 to Stats.n_sites r.site_stats - 1 do
    sum :=
      !sum +. (Stats.histogram_mean h ~site:s *. float_of_int (Stats.histogram_count h ~site:s))
  done;
  !sum

let test_span_histograms_populated () =
  (* Every finished attempt lands one observation in each phase histogram,
     so the per-phase counts must all equal commits + aborts, and the
     exec/commit work must show up as nonzero time. *)
  let r = Driver.run chaos_params (find_protocol "backedge") in
  let finished = r.summary.commits + r.summary.aborts in
  checkb "transactions finished" true (finished > 0);
  List.iter
    (fun name -> checki (name ^ " count = finished attempts") finished (span_count r name))
    [ "span.lock"; "span.exec"; "span.prop"; "span.commit" ];
  checkb "commit time attributed" true (span_total r "span.commit" > 0.0);
  checkb "execution time attributed" true (span_total r "span.exec" > 0.0)

let test_span_prop_wait_attributed () =
  (* PSL's synchronous waiting phase is the remote read round trip; it must
     land in span.prop. (BackEdge's eager wait needs a placement with
     backedges, which this small generated one has none of.) *)
  let r = Driver.run chaos_params (find_protocol "psl") in
  checkb "transactions finished" true (r.summary.commits > 0);
  checkb "propagation wait time attributed" true (span_total r "span.prop" > 0.0)

(* --- telemetry transparency -------------------------------------------------- *)

let test_telemetry_transparency () =
  (* The timeline ticker and the trace only observe: turning both on cannot
     change what the run simulates. [compare] rather than [=] because
     summary averages over empty samples are NaN. *)
  let same what a b = checkb (what ^ " unchanged") true (compare a b = 0) in
  List.iter
    (fun name ->
      let proto = find_protocol name in
      let off = Driver.run ~trace:false { chaos_params with timeline_every = 0.0 } proto in
      let on = Driver.run ~trace:true chaos_params proto in
      checkb (name ^ ": no timeline when off") true (off.timeline = None);
      checkb (name ^ ": timeline when on") true (on.timeline <> None);
      same (name ^ ": summary") off.summary on.summary;
      same (name ^ ": divergent") off.divergent on.divergent;
      checkf (name ^ ": sim_time unchanged") off.sim_time on.sim_time)
    [ "dag-wt"; "backedge"; "psl"; "ssi" ]

(* --- report rendering ------------------------------------------------------- *)

let test_report_round_trip () =
  let csv = run_csv "backedge" in
  match Report.parse csv with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok r ->
      checkb "rows parsed" true (Report.n_rows r > 0);
      checkb "meta recovered" true (List.mem_assoc "protocol" (Report.meta r));
      checks "protocol from meta" "backedge" (List.assoc "protocol" (Report.meta r));
      checki "lag series per site" chaos_params.n_sites
        (List.length (Report.site_columns r "lag_ms"));
      (match Report.column r "active_txns" with
      | Some series -> checki "active series length" (Report.n_rows r) (List.length series)
      | None -> Alcotest.fail "active_txns column missing");
      let md = Report.to_markdown r in
      checkb "markdown mentions lag" true (contains ~affix:"lag" md);
      checkb "markdown has sparklines" true
        (List.exists (fun g -> contains ~affix:g md) [ "\xe2\x96\x81"; "\xe2\x96\x88" ])

let test_report_rejects_garbage () =
  (match Report.parse "" with
  | Ok _ -> Alcotest.fail "empty input accepted"
  | Error _ -> ());
  match Report.parse "not,a\n1,timeline,3\n" with
  | Ok _ -> Alcotest.fail "ragged input accepted"
  | Error _ -> ()

let () =
  Alcotest.run "timeline"
    [
      ( "storage",
        [ Alcotest.test_case "validation" `Quick test_timeline_validation ] );
      ( "determinism",
        [
          Alcotest.test_case "run csv identical" `Quick test_run_csv_identical;
          Alcotest.test_case "sweep timelines identical" `Quick test_sweep_timelines_identical;
        ] );
      ( "lag",
        [
          Alcotest.test_case "rises and drains" `Quick test_lag_rises_and_drains;
          Alcotest.test_case "psl stays zero" `Quick test_psl_lag_zero;
        ] );
      ( "spans",
        [
          Alcotest.test_case "histograms populated" `Quick test_span_histograms_populated;
          Alcotest.test_case "prop wait attributed" `Quick test_span_prop_wait_attributed;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "transparency" `Quick test_telemetry_transparency ] );
      ( "report",
        [
          Alcotest.test_case "round trip" `Quick test_report_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_report_rejects_garbage;
        ] );
    ]
