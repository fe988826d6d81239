(* Tests for the observability subsystem (lib/obs): ring-buffer trace
   collector, per-site stats registries, exporters, and — the load-bearing
   part — protocol invariants asserted over real traces:

   - DAG(WT) commits secondaries in FIFO receive order at every site;
   - PSL sends no propagation traffic at all (replicas stay virtual);
   - BackEdge participants hold their staged locks across the primary
     commit (stage <= primary commit <= decide, per gid and site);
   - DAG(T) epochs advance monotonically at every site. *)

module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Export = Repdb_obs.Export
module Params = Repdb_workload.Params
module Driver = Repdb.Driver

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- trace ring buffer ---------------------------------------------------- *)

(* A deterministic fake clock: 0.0, 1.0, 2.0, ... *)
let ticking_clock () =
  let n = ref (-1) in
  fun () ->
    incr n;
    float_of_int !n

let test_ring_overflow () =
  let tr = Trace.create ~capacity:4 ~clock:(ticking_clock ()) () in
  for gid = 0 to 9 do
    Trace.record tr (Event.Txn_begin { gid; site = 0 })
  done;
  checki "length capped" 4 (Trace.length tr);
  checki "dropped counted" 6 (Trace.dropped tr);
  let gids =
    List.map
      (fun (e : Event.t) ->
        match e.kind with Event.Txn_begin { gid; _ } -> gid | _ -> -1)
      (Trace.events tr)
  in
  Alcotest.(check (list int)) "last four survive in order" [ 6; 7; 8; 9 ] gids;
  let times = List.map (fun (e : Event.t) -> e.time) (Trace.events tr) in
  Alcotest.(check (list (float 1e-9))) "clock stamps" [ 6.0; 7.0; 8.0; 9.0 ] times

let test_disabled_noop () =
  let tr = Trace.disabled in
  checkb "off" false (Trace.on tr);
  Trace.record tr (Event.Txn_begin { gid = 1; site = 0 });
  checki "no events" 0 (Trace.length tr);
  checki "nothing dropped" 0 (Trace.dropped tr)

(* --- stats registries ------------------------------------------------------ *)

let test_stats_counters () =
  let s = Stats.create ~n_sites:3 () in
  let c = Stats.counter s "txn.commit" in
  Stats.incr c ~site:0;
  Stats.incr c ~site:0;
  Stats.incr c ~site:2;
  Stats.add c ~site:1 5;
  checki "site 0" 2 (Stats.counter_value c ~site:0);
  checki "site 1" 5 (Stats.counter_value c ~site:1);
  checki "site 2" 1 (Stats.counter_value c ~site:2);
  checki "total" 8 (Stats.counter_total c);
  (* find-or-register returns the same handle *)
  let c' = Stats.counter s "txn.commit" in
  Stats.incr c' ~site:0;
  checki "shared handle" 3 (Stats.counter_value c ~site:0)

let test_stats_histogram () =
  let s = Stats.create ~n_sites:2 () in
  let h = Stats.histogram s "response" in
  Stats.observe h ~site:0 3.0;
  Stats.observe h ~site:0 7.0;
  Stats.observe h ~site:1 900.0;
  checki "count site 0" 2 (Stats.histogram_count h ~site:0);
  checkf "mean site 0" 5.0 (Stats.histogram_mean h ~site:0);
  (* Percentiles are bucket upper bounds: 3.0 lands in (2,5], 7.0 in (5,10]. *)
  checkf "p50 site 0" 5.0 (Stats.percentile h ~site:0 0.5);
  checkf "p99 site 0" 10.0 (Stats.percentile h ~site:0 0.99);
  checkf "aggregate p99" 1000.0 (Stats.percentile_total h 0.99);
  checki "all-site count" 3 (Stats.histogram_count h ~site:(-1));
  checkf "all-site sum" 910.0 (Stats.histogram_sum h ~site:(-1));
  checkf "all-site mean" (910.0 /. 3.0) (Stats.histogram_mean h ~site:(-1));
  checkf "empty percentile" 0.0 (Stats.percentile (Stats.histogram s "other") ~site:0 0.5)

let test_stats_histogram_overflow_max () =
  let s = Stats.create ~n_sites:2 () in
  let h = Stats.histogram s "slow" in
  (* Observations beyond the largest finite bound (30 s) land in the overflow
     bucket; percentiles there must report the observed maximum, not clamp. *)
  Stats.observe h ~site:0 45_000.0;
  Stats.observe h ~site:0 90_000.0;
  Stats.observe h ~site:1 120_000.0;
  checkf "max site 0" 90_000.0 (Stats.histogram_max h ~site:0);
  checkf "max aggregate" 120_000.0 (Stats.histogram_max h ~site:(-1));
  checkf "p99 reports observed max" 90_000.0 (Stats.percentile h ~site:0 0.99);
  checkf "aggregate p99 reports observed max" 120_000.0 (Stats.percentile_total h 0.99);
  (* Mixed: the median still resolves to a finite bucket bound. *)
  Stats.observe h ~site:0 1.0;
  Stats.observe h ~site:0 1.0;
  Stats.observe h ~site:0 1.0;
  checkf "p50 stays in finite buckets" 1.0 (Stats.percentile h ~site:0 0.5);
  checkf "p99 still the max" 90_000.0 (Stats.percentile h ~site:0 0.99)

let test_stats_histogram_bucket_mismatch () =
  let s = Stats.create ~n_sites:1 () in
  let h = Stats.histogram ~buckets:[| 1.0; 2.0 |] s "lat" in
  (* Same name, no buckets or identical buckets: same handle. *)
  Stats.observe h ~site:0 1.5;
  Stats.observe (Stats.histogram s "lat") ~site:0 1.5;
  Stats.observe (Stats.histogram ~buckets:[| 1.0; 2.0 |] s "lat") ~site:0 1.5;
  checki "one histogram" 3 (Stats.histogram_count h ~site:0);
  (* Different buckets for an existing name must raise, not silently ignore. *)
  Alcotest.check_raises "bucket mismatch raises"
    (Invalid_argument "Stats.histogram: \"lat\" already registered with different buckets")
    (fun () -> ignore (Stats.histogram ~buckets:[| 5.0; 10.0 |] s "lat"))

(* --- exporters ------------------------------------------------------------- *)

(* Minimal JSON well-formedness check: brackets/braces balance outside
   strings, and the text is non-empty. Catches truncation and bad escaping
   without needing a JSON parser. *)
let json_balanced s =
  let depth = ref 0 and in_str = ref false and escaped = ref false and ok = ref true in
  String.iter
    (fun ch ->
      if !escaped then escaped := false
      else if !in_str then begin
        if ch = '\\' then escaped := true else if ch = '"' then in_str := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str && String.length s > 0

let sample_trace () =
  let tr = Trace.create ~capacity:64 ~clock:(ticking_clock ()) () in
  Trace.record tr (Event.Txn_begin { gid = 7; site = 1 });
  Trace.record tr
    (Event.Lock_wait { site = 1; owner = 7; item = 3; mode = Event.Exclusive });
  Trace.record tr (Event.Msg_send { src = 1; dst = 2; kind = "secondary"; size = 40 });
  Trace.record tr (Event.Queue_depth { site = 2; queue = "fifo"; depth = 3 });
  Trace.record tr (Event.Txn_abort { gid = 7; site = 1; reason = "deadlock \"x\"" });
  tr

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_export_jsonl () =
  let tr = sample_trace () in
  let out = Export.jsonl_to_string tr in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  checki "meta line plus one line per event" (Trace.length tr + 1) (List.length lines);
  let meta = List.hd lines in
  checkb "leads with the metadata record" true (contains ~affix:"\"meta\"" meta);
  checkb "meta carries the ring capacity" true (contains ~affix:"\"capacity\":64" meta);
  checkb "meta reports a complete trace" true (contains ~affix:"\"dropped\":0" meta);
  List.iter
    (fun line ->
      checkb "object per line" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
      checkb "line is balanced json" true (json_balanced line))
    lines;
  checkb "label present" true (List.exists (contains ~affix:"\"lock_wait\"") lines);
  checkb "escaped quote survives" true (List.exists (contains ~affix:"\\\"x\\\"") lines)

let test_export_chrome () =
  let tr = sample_trace () in
  let out = Export.chrome_to_string ~n_sites:3 tr in
  checkb "balanced json" true (json_balanced out);
  checkb "trace events array" true (contains ~affix:"\"traceEvents\"" out);
  checkb "site process metadata" true (contains ~affix:"\"process_name\"" out);
  checkb "otherData meta" true (contains ~affix:"\"otherData\":{\"capacity\":64,\"dropped\":0}" out);
  checkb "txn async begin" true (contains ~affix:"\"ph\":\"b\"" out);
  checkb "txn async end" true (contains ~affix:"\"ph\":\"e\"" out);
  checkb "queue counter" true (contains ~affix:"\"ph\":\"C\"" out);
  (* ts is microseconds: event at t=2.0ms must appear as 2000. *)
  checkb "microsecond timestamps" true (contains ~affix:"\"ts\":2000" out)

(* A trace that wrapped must say so in its metadata record: a consumer that
   misses the dropped count would read a sliding window as a full history. *)
let test_export_meta_wrapped () =
  let tr = Trace.create ~capacity:4 ~clock:(ticking_clock ()) () in
  for gid = 0 to 9 do
    Trace.record tr (Event.Txn_begin { gid; site = 0 })
  done;
  let meta = [ ("protocol", `String "psl"); ("seed", `Int 42) ] in
  let out = Export.jsonl_to_string ~meta tr in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  checki "meta plus surviving events" (Trace.length tr + 1) (List.length lines);
  let first = List.hd lines in
  checkb "capacity" true (contains ~affix:"\"capacity\":4" first);
  checkb "dropped count of the wrapped ring" true (contains ~affix:"\"dropped\":6" first);
  checkb "caller metadata: protocol" true (contains ~affix:"\"protocol\":\"psl\"" first);
  checkb "caller metadata: seed" true (contains ~affix:"\"seed\":42" first);
  let chrome = Export.chrome_to_string ~n_sites:1 ~meta tr in
  checkb "chrome balanced" true (json_balanced chrome);
  checkb "chrome mirrors the record under otherData" true
    (contains ~affix:"\"otherData\":{\"capacity\":4,\"dropped\":6,\"protocol\":\"psl\",\"seed\":42}"
       chrome)

(* Span phases render as complete ("X") duration slices with microsecond
   ts/dur on the origin site's track. *)
let test_export_chrome_span_slice () =
  let tr = Trace.create ~capacity:8 ~clock:(ticking_clock ()) () in
  Trace.record tr (Event.Span_phase { gid = 3; site = 1; phase = "lock"; t0 = 2.0; dur = 1.5 });
  let out = Export.chrome_to_string ~n_sites:2 tr in
  checkb "balanced json" true (json_balanced out);
  checkb "complete slice" true
    (contains
       ~affix:
         "{\"ph\":\"X\",\"cat\":\"span\",\"pid\":1,\"tid\":0,\"ts\":2000.000,\"dur\":1500.000,\"name\":\"lock\",\"args\":{\"gid\":3}}"
       out)

(* The escaper is shared by every JSON emitter in lib/obs; pin its output on
   each class of character so a regression shows up as an exact-string diff. *)
let test_escape_pinned () =
  let checks = Alcotest.(check string) in
  checks "plain text untouched" "abc xyz" (Export.escape "abc xyz");
  checks "quote" "\\\"" (Export.escape "\"");
  checks "backslash" "\\\\" (Export.escape "\\");
  checks "newline" "\\n" (Export.escape "\n");
  checks "carriage return" "\\r" (Export.escape "\r");
  checks "tab" "\\t" (Export.escape "\t");
  checks "control chars get \\u escapes" "\\u0000\\u0001\\u001f" (Export.escape "\x00\x01\x1f");
  checks "0x20 and above pass through" " ~" (Export.escape " ~");
  checks "mixed" "say \\\"hi\\\"\\nbell\\u0007" (Export.escape "say \"hi\"\nbell\x07")

(* --- stats table rendering -------------------------------------------------- *)

(* Expect-style pin of the unified counter+histogram table layout: adaptive
   column widths, site rows then an "all" aggregate, histograms expanded to
   count/avg/p50/p95/p99 columns. *)
let test_stats_table_layout () =
  let s = Stats.create ~n_sites:2 () in
  let c = Stats.counter s "txn.commit" in
  Stats.incr c ~site:0;
  Stats.incr c ~site:0;
  let h = Stats.histogram s "response" in
  Stats.observe h ~site:0 3.0;
  Stats.observe h ~site:0 7.0;
  Stats.observe h ~site:1 900.0;
  let expected =
    String.concat "\n"
      [
        "site  txn.commit  response#  response.avg  response.p50  response.p95  response.p99";
        "0              2          2           5.0           5.0          10.0          10.0";
        "1              0          1         900.0        1000.0        1000.0        1000.0";
        "all            2          3         303.3          10.0        1000.0        1000.0";
      ]
  in
  Alcotest.(check string) "pinned layout" expected (Fmt.str "%a" Stats.pp_table s)

(* --- trace-backed protocol invariants -------------------------------------- *)

let quick_params =
  { Params.default with txns_per_thread = 10; backedge_prob = 0.0 }

let find_protocol name =
  match Repdb.Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "protocol %s not registered" name

let run_traced ?(params = quick_params) name =
  let r = Driver.run ~trace:true params (find_protocol name) in
  Alcotest.(check bool) "trace collected" true (Trace.on r.trace);
  checki "no events dropped" 0 (Trace.dropped r.trace);
  r

(* DAG(WT): at every site the secondary commit order must equal the receive
   (FIFO dequeue) order restricted to subtransactions that write locally —
   the ordering guarantee Section 3.1's correctness argument rests on. *)
let test_dagwt_fifo_commit_order () =
  let r = run_traced "dag-wt" in
  let m = r.params.n_sites in
  let recvs = Array.make m [] and commits = Array.make m [] in
  Trace.iter r.trace (fun e ->
      match e.kind with
      | Event.Secondary_recv { gid; site } -> recvs.(site) <- gid :: recvs.(site)
      | Event.Secondary_commit { gid; site } -> commits.(site) <- gid :: commits.(site)
      | _ -> ());
  let checked = ref 0 in
  for site = 0 to m - 1 do
    let recv_seq = List.rev recvs.(site) and commit_seq = List.rev commits.(site) in
    let committed = List.fold_left (fun s g -> g :: s) [] commit_seq in
    let expected = List.filter (fun g -> List.mem g committed) recv_seq in
    Alcotest.(check (list int))
      (Printf.sprintf "site %d commits in receive order" site)
      expected commit_seq;
    checked := !checked + List.length commit_seq
  done;
  checkb "assertion is not vacuous" true (!checked > 10)

(* PSL keeps replicas virtual: the trace must contain no propagation events
   of any kind, and every message on the wire is read-lock traffic. *)
let test_psl_no_propagation () =
  let r = run_traced "psl" in
  let sends = ref 0 in
  Trace.iter r.trace (fun e ->
      match e.kind with
      | Event.Secondary_recv _ | Event.Secondary_commit _ | Event.Prop_apply _
      | Event.Dummy_emit _ ->
          Alcotest.failf "PSL emitted a propagation event: %s" (Fmt.str "%a" Event.pp e)
      | Event.Msg_send { kind; _ } ->
          incr sends;
          checkb ("message kind " ^ kind) true
            (List.mem kind [ "read-request"; "read-reply"; "release" ])
      | _ -> ());
  checkb "remote reads happened" true (!sends > 0)

(* BackEdge: a participant that staged a backedge subtransaction holds its
   write locks from the stage until the origin's decision arrives — in
   particular across the primary commit (Section 4's eager leg). The trace
   must show stage <= primary commit <= decide for every committed gid. *)
let test_backedge_eager_lock_span () =
  let params = { Params.default with txns_per_thread = 20 } in
  let r = run_traced ~params "backedge" in
  let stage = Hashtbl.create 64 and commit = Hashtbl.create 64 in
  let checked = ref 0 in
  Trace.iter r.trace (fun e ->
      match e.kind with
      | Event.Backedge_stage { gid; site } ->
          if not (Hashtbl.mem stage (gid, site)) then Hashtbl.add stage (gid, site) e.time
      | Event.Txn_commit { gid; _ } -> Hashtbl.replace commit gid e.time
      | Event.Backedge_decide { gid; site; commit = true } -> begin
          match (Hashtbl.find_opt stage (gid, site), Hashtbl.find_opt commit gid) with
          | Some t_stage, Some t_commit ->
              incr checked;
              checkb
                (Printf.sprintf "gid %d site %d: staged before primary commit" gid site)
                true (t_stage <= t_commit);
              checkb
                (Printf.sprintf "gid %d site %d: decide after primary commit" gid site)
                true (t_commit <= e.time)
          | Some _, None ->
              Alcotest.failf "gid %d: commit-decide without a primary commit event" gid
          | None, _ -> Alcotest.failf "gid %d site %d: decide without a stage" gid site
        end
      | _ -> ());
  checkb "backedge commits observed" true (!checked > 0)

(* DAG(T): each site's epoch only moves forward. *)
let test_dagt_epoch_monotone () =
  let r = run_traced "dag-t" in
  let m = r.params.n_sites in
  let last = Array.make m min_int in
  let advances = ref 0 in
  Trace.iter r.trace (fun e ->
      match e.kind with
      | Event.Epoch_advance { site; epoch } ->
          incr advances;
          checkb (Printf.sprintf "site %d epoch grows" site) true (epoch > last.(site));
          last.(site) <- epoch
      | _ -> ());
  checkb "epochs advanced" true (!advances > 0)

(* Every registered protocol reports through the same trace hooks: one
   txn_commit event per committed transaction, and prop_apply events from
   every protocol that pushes updates to replicas. *)
let test_trace_parity () =
  List.iter
    (fun name ->
      let p = find_protocol name in
      let module P = (val p : Repdb.Protocol.S) in
      let r = run_traced name in
      let commits = ref 0 and applies = ref 0 in
      Trace.iter r.trace (fun e ->
          match e.kind with
          | Event.Txn_commit _ -> incr commits
          | Event.Prop_apply _ -> incr applies
          | _ -> ());
      checki (name ^ ": txn_commit events = commits") r.summary.commits !commits;
      if P.updates_replicas then checkb (name ^ ": prop_apply events") true (!applies > 0))
    Repdb.Registry.names

(* Tracing off (the default) must leave the shared disabled collector in the
   report and collect nothing. *)
let test_trace_off_by_default () =
  let r = Driver.run quick_params (find_protocol "dag-wt") in
  checkb "disabled" false (Trace.on r.trace);
  checki "empty" 0 (Trace.length r.trace);
  (* The per-site registries stay on regardless. *)
  let c = Stats.counter r.site_stats "txn.commit" in
  checki "stats still collected" r.summary.commits (Stats.counter_total c)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram overflow max" `Quick test_stats_histogram_overflow_max;
          Alcotest.test_case "histogram bucket mismatch" `Quick
            test_stats_histogram_bucket_mismatch;
          Alcotest.test_case "table layout" `Quick test_stats_table_layout;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl" `Quick test_export_jsonl;
          Alcotest.test_case "chrome" `Quick test_export_chrome;
          Alcotest.test_case "wrapped-trace metadata" `Quick test_export_meta_wrapped;
          Alcotest.test_case "chrome span slice" `Quick test_export_chrome_span_slice;
          Alcotest.test_case "escape pinned" `Quick test_escape_pinned;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "dag-wt fifo commits" `Quick test_dagwt_fifo_commit_order;
          Alcotest.test_case "psl no propagation" `Quick test_psl_no_propagation;
          Alcotest.test_case "backedge eager lock span" `Quick test_backedge_eager_lock_span;
          Alcotest.test_case "dag-t epoch monotone" `Quick test_dagt_epoch_monotone;
          Alcotest.test_case "trace parity" `Quick test_trace_parity;
          Alcotest.test_case "trace off by default" `Quick test_trace_off_by_default;
        ] );
    ]
