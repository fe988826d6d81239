(* repdb — command-line front end.

     repdb run --protocol backedge -b 0.4 --check
     repdb experiment fig2a --steps 5 --txns 200
     repdb protocols
     repdb table1
*)

open Cmdliner
module Params = Repdb_workload.Params
module Fault = Repdb_fault.Fault
module Reconfig = Repdb_reconfig.Reconfig

(* --- shared parameter flags --------------------------------------------- *)

let faults_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Fault.of_string s) in
  Arg.conv (parse, Fault.pp)

let reconfig_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Reconfig.of_string s) in
  Arg.conv (parse, Reconfig.pp)

let params_term =
  let open Term in
  let docs = "WORKLOAD PARAMETERS (Table 1 of the paper)" in
  let int_flag name ~doc default =
    Arg.(value & opt int default & info [ name ] ~docs ~doc)
  in
  let float_flag ?short name ~doc default =
    let names = match short with Some s -> [ s; name ] | None -> [ name ] in
    Arg.(value & opt float default & info names ~docs ~doc)
  in
  let d = Params.default in
  let make sites items r s b ops threads txns read_op read_txn latency timeout seed retry deadline
      stale check faults reconfig zipf occ_epoch heal phi_threshold =
    {
      d with
      n_sites = sites;
      n_items = items;
      replication_prob = r;
      site_prob = s;
      backedge_prob = b;
      ops_per_txn = ops;
      threads_per_site = threads;
      txns_per_thread = txns;
      read_op_prob = read_op;
      read_txn_prob = read_txn;
      latency;
      lock_timeout = timeout;
      seed;
      retry = (if retry then Params.default_backoff else Params.No_retry);
      txn_deadline = deadline;
      stale_reads = stale;
      record_history = check;
      faults;
      reconfig;
      zipf_theta = zipf;
      occ_epoch_ms = occ_epoch;
      heal;
      phi_threshold;
    }
  in
  const make
  $ int_flag "sites" ~doc:"Number of sites $(i,m)." d.n_sites
  $ int_flag "items" ~doc:"Number of distinct items $(i,n)." d.n_items
  $ float_flag ~short:"r" "replication" ~doc:"Replication probability $(i,r)." d.replication_prob
  $ float_flag ~short:"s" "site-prob" ~doc:"Site probability $(i,s)." d.site_prob
  $ float_flag ~short:"b" "backedge" ~doc:"Backedge probability $(i,b)." d.backedge_prob
  $ int_flag "ops" ~doc:"Operations per transaction." d.ops_per_txn
  $ int_flag "threads" ~doc:"Threads per site." d.threads_per_site
  $ int_flag "txns" ~doc:"Transactions per thread." d.txns_per_thread
  $ float_flag "read-op" ~doc:"Read operation probability." d.read_op_prob
  $ float_flag "read-txn" ~doc:"Read transaction probability." d.read_txn_prob
  $ float_flag "latency" ~doc:"One-way network latency (ms)." d.latency
  $ float_flag "timeout" ~doc:"Deadlock timeout interval (ms)." d.lock_timeout
  $ int_flag "seed" ~doc:"RNG seed (runs are deterministic in it)." d.seed
  $ Arg.(
      value & flag
      & info [ "retry" ] ~docs
          ~doc:
            "Retry aborted transactions with capped exponential backoff (base 1 ms, x2 per \
             failure, 64 ms cap, deterministic jitter from a per-client seeded stream).")
  $ float_flag "deadline"
      ~doc:
        "Per-attempt deadline (ms) for the protocols that wait on another site: an \
         attempt still waiting when it passes aborts with $(i,deadline-exceeded). \
         $(b,psl) checks it at its remote reads, $(b,ssi) at its remote snapshot \
         reads and its certification, $(b,backedge) at its origin wait and $(b,occ-epoch) at its epoch wait. \
         $(b,eager), $(b,lazy-master) and $(b,central) ignore it, even while they wait \
         remotely; $(b,dag-wt), $(b,dag-t) and $(b,naive) never wait remotely, so it \
         never fires. 0 disables deadlines."
      d.txn_deadline
  $ float_flag "stale-reads"
      ~doc:
        "Bounded-staleness read fallback (ms): when an item's primary is unreachable (network \
         partition), serve the read from the local replica if it was written within the bound. \
         0 disables the fallback. PSL only."
      d.stale_reads
  $ Arg.(
      value & flag
      & info [ "check" ] ~docs
          ~doc:
            "Record the access history and verify global serializability and replica convergence.")
  $ Arg.(
      value
      & opt faults_conv Fault.empty
      & info [ "faults" ] ~docs ~docv:"SPEC"
          ~doc:
            "Deterministic fault schedule the run must survive: $(b,;)-separated clauses \
             $(b,crash@T:site=S,down=D) (site $(i,S) crashes at $(i,T) ms, restarts after \
             $(i,D), default 500), $(b,drop@T1-T2:p=P,src=A,dst=B) (drop transmission attempts \
             with probability $(i,P) in the window; src/dst optional), \
             $(b,delay@T1-T2:add=MS,src=A,dst=B) (delivery surcharge), \
             $(b,partition@T1-T2:groups=G1|G2[|..]) (full bidirectional split between the \
             $(b,.)-separated site groups for the window, e.g. \
             $(b,groups=0.1.2|3.4.5)) and $(b,rto=MS) (retransmit timeout, default 5). \
             Example: $(b,\"crash@300:site=1,down=400;partition@500-1500:groups=0.1|2.3\").")
  $ Arg.(
      value
      & opt reconfig_conv Reconfig.empty
      & info [ "reconfig" ] ~docs ~docv:"SPEC"
          ~doc:
            "Online reconfiguration plan executed live at simulated times: $(b,;)-separated \
             clauses $(b,add@T:item=I,site=S) (add a replica of item $(i,I) at site $(i,S), \
             state-transferred from its primary), $(b,drop@T:item=I,site=S) (drop that \
             replica) and $(b,rebalance@T:from=A,to=B) (move every replica site $(i,A) holds \
             to site $(i,B)). Each step is an epoch switch: quiesce, transfer, atomic \
             placement/tree swap, resume. Example: \
             $(b,\"add@300:item=5,site=3;rebalance@600:from=1,to=2\").")
  $ float_flag "zipf"
      ~doc:
        "Zipf skew theta for item selection within the site's readable/writable pools, in \
         [0, 1). 0 keeps the uniform (or $(b,--hot)-spot) draw; larger values concentrate \
         accesses on the lowest-numbered items of each pool, creating the contention the \
         $(b,occ) sweep measures."
      d.zipf_theta
  $ float_flag "occ-epoch"
      ~doc:
        "Validation epoch (simulated ms) for the $(b,occ-epoch) protocol: every site flushes \
         its buffered transactions to the validator at each epoch boundary. Shorter epochs cut \
         commit latency but amortize less; longer epochs age the read sets and raise \
         validation aborts under contention."
      d.occ_epoch_ms
  $ Arg.(
      value & flag
      & info [ "heal" ] ~docs
          ~doc:
            "Self-healing: heartbeat-driven φ-accrual failure detection, automatic primary \
             failover through the epoch machinery when a majority of observers suspect a site, \
             and background anti-entropy repair (Merkle digest exchange shipping divergent \
             values from primaries). Requires a protocol with a reconfigure hook; healing \
             $(b,psl) additionally needs $(b,--deadline) so failover drains are bounded. \
             Enables $(b,corrupt@) fault clauses and the timeline's $(b,phi.N) columns.")
  $ float_flag "phi-threshold"
      ~doc:
        "φ-accrual suspicion threshold: a site is suspected once a strict majority of up \
         observers see φ = log10(e) · silence/mean-interarrival above this. At the fixed \
         25 ms heartbeat, 8 fires after ≈460 ms of silence; lower detects faster but risks \
         false failovers under latency jitter (costing availability, never consistency)."
      d.phi_threshold

(* --- run ------------------------------------------------------------------ *)

let protocol_conv =
  let parse s =
    match Repdb.Registry.find s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown protocol %S (try: %s)" s
               (String.concat ", " Repdb.Registry.names)))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Repdb.Protocol.name p))

let protocol_term =
  Arg.(
    value
    & opt protocol_conv (module Repdb.Backedge_proto : Repdb.Protocol.S)
    & info [ "p"; "protocol" ] ~doc:"Protocol to run (see $(b,repdb protocols)).")

(* Export the collected trace according to the destination name:
   "-" streams JSONL to stdout, "*.jsonl" writes JSONL to the file, anything
   else writes Chrome trace_event JSON (load in chrome://tracing / Perfetto). *)
let export_trace (report : Repdb.Driver.report) dest =
  let n_sites = report.params.n_sites in
  let meta =
    [ ("protocol", `String report.protocol); ("seed", `Int report.params.seed) ]
  in
  if dest = "-" then Repdb_obs.Export.jsonl_to_channel ~meta report.trace stdout
  else
    match open_out dest with
    | exception Sys_error msg ->
        Fmt.epr "error: cannot write trace: %s@." msg;
        exit 1
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            if Filename.check_suffix dest ".jsonl" then
              Repdb_obs.Export.jsonl_to_channel ~meta report.trace oc
            else Repdb_obs.Export.chrome_to_channel ~n_sites ~meta report.trace oc);
        Fmt.epr "trace: wrote %d events to %s%s@."
          (Repdb_obs.Trace.length report.trace)
          dest
          (let d = Repdb_obs.Trace.dropped report.trace in
           if d > 0 then Printf.sprintf " (%d oldest dropped)" d else "")

let trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Collect a structured event trace. $(docv) of $(b,-) streams JSONL to stdout (the \
           report moves to stderr); a name ending in $(b,.jsonl) writes JSONL; anything else \
           writes Chrome trace_event JSON for chrome://tracing / Perfetto.")

(* --- telemetry flags ------------------------------------------------------ *)

let obs_flags =
  let docs = "TELEMETRY" in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docs ~docv:"FILE"
          ~doc:
            "Sample cluster gauges (per-site replication lag, commit/abort rates, lock \
             occupancy, in-flight messages) on a fixed simulated-time interval and write the \
             timeline to $(docv) — CSV, or JSON if $(docv) ends in $(b,.json). Render with \
             $(b,repdb report).")
  in
  let every =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeline-every" ] ~docs ~docv:"MS"
          ~doc:"Timeline sampling interval in simulated ms (default 100).")
  in
  Term.(const (fun t e -> (t, e)) $ timeline $ every)

(* Fold the telemetry flags into the params: sampling turns on as soon as a
   destination or an explicit interval asks for it. *)
let apply_obs params (timeline_file, every) =
  let timeline_every =
    match (timeline_file, every) with
    | None, None -> params.Params.timeline_every
    | _, Some ms -> ms
    | Some _, None -> 100.0
  in
  { params with Params.timeline_every }

let write_timeline (tl : Repdb_obs.Timeline.t) dest =
  match open_out dest with
  | exception Sys_error msg ->
      Fmt.epr "error: cannot write timeline: %s@." msg;
      exit 1
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          if Filename.check_suffix dest ".json" then
            output_string oc (Repdb_obs.Timeline.to_json_string tl)
          else Repdb_obs.Timeline.to_csv tl (output_string oc));
      Fmt.epr "timeline: wrote %d samples to %s@." (Repdb_obs.Timeline.length tl) dest

let run_with_trace params protocol trace_file =
  match Repdb.Driver.run ~trace:(trace_file <> None) params protocol with
  | report -> report
  | exception (Invalid_argument msg | Failure msg) ->
      Fmt.epr "error: %s@." msg;
      exit 1

let run_cmd =
  let run params protocol trace_file ((timeline_file, _) as obs) =
    let params = apply_obs params obs in
    let report = run_with_trace params protocol trace_file in
    (* With "--trace -" the event stream owns stdout. *)
    let report_ppf = if trace_file = Some "-" then Fmt.stderr else Fmt.stdout in
    Fmt.pf report_ppf "%a@." Repdb.Driver.pp_report report;
    Option.iter (export_trace report) trace_file;
    (match (timeline_file, report.timeline) with
    | Some dest, Some tl -> write_timeline tl dest
    | _ -> ());
    (* A failed correctness or liveness check fails the command, so scripts
       and CI see it. *)
    let not_serializable =
      match report.serializability with
      | Some (Repdb_txn.Serializability.Not_serializable _) -> true
      | _ -> false
    in
    if
      not_serializable
      || (match report.divergent with Some (_ :: _) -> true | _ -> false)
      || report.retries_exhausted > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one protocol on one parameter setting and print the report. Exits 1 when the \
          history is not serializable, replicas diverged or a transaction exhausted its \
          retries.")
    Term.(const run $ params_term $ protocol_term $ trace_flag $ obs_flags)

(* --- stats ---------------------------------------------------------------- *)

let stats_cmd =
  let run params protocol trace_file ((timeline_file, _) as obs) =
    let params = apply_obs params obs in
    let report = run_with_trace params protocol trace_file in
    let ppf = if trace_file = Some "-" then Fmt.stderr else Fmt.stdout in
    Fmt.pf ppf "%s, %d sites@." report.protocol report.params.n_sites;
    Fmt.pf ppf "%a@." Repdb.Driver.pp_site_stats report;
    Option.iter (export_trace report) trace_file;
    match (timeline_file, report.timeline) with
    | Some dest, Some tl -> write_timeline tl dest
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one protocol and print the per-site counter/histogram table (lock traffic, \
          message counts, response and propagation percentiles per site).")
    Term.(const run $ params_term $ protocol_term $ trace_flag $ obs_flags)

(* --- experiment ------------------------------------------------------------ *)

module Pool = Repdb_par.Pool

let jobs_term =
  Arg.(
    value
    & opt int (Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the sweep's independent simulations on $(docv) domains (default: \
           $(b,Domain.recommended_domain_count () - 1), at least 1). Results are bit-identical \
           to $(b,-j 1): every run owns its simulator and RNG, and results are ordered by \
           input index. $(b,-j 1) is the plain sequential path.")

(* Run [f] with a pool of [jobs] domains (or none for [jobs <= 1]), shutting
   the pool down afterwards. *)
let with_jobs jobs f =
  if jobs > 1 then Pool.with_pool ~domains:jobs (fun pool -> f (Some pool)) else f None

let experiment_cmd =
  (* Both the help text and the dispatch come from [Experiment.registry], so
     adding a sweep there is all it takes to expose it here. *)
  let exp_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:(Printf.sprintf "One of: %s." (String.concat ", " Repdb.Experiment.ids)))
  in
  let steps =
    Arg.(value & opt int 10 & info [ "steps" ] ~doc:"Sweep resolution for probability axes.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Print CSV only.") in
  let timeline_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline-dir" ] ~docv:"DIR"
          ~doc:
            "Sample a telemetry timeline during every run of the sweep and write one CSV per \
             (point, protocol) into $(docv) (created if missing). Render each with $(b,repdb \
             report).")
  in
  let run params exp_name steps csv jobs timeline_dir (_, every) =
    (* [--timeline-dir] turns sampling on for every run of the sweep; a bare
       [--timeline FILE] is meaningless here and ignored in favour of it. *)
    let base =
      let p = apply_obs params (None, every) in
      if timeline_dir <> None && p.Params.timeline_every = 0.0 then { p with Params.timeline_every = 100.0 } else p
    in
    let fail fmt = Fmt.kstr (fun msg -> Fmt.epr "error: %s@." msg; exit 1) fmt in
    let positive flag n = if n < 1 then fail "%s must be positive (got %d)" flag n in
    positive "--steps" steps;
    match Repdb.Experiment.find exp_name with
    | None ->
        fail "unknown experiment %S (try: %s)" exp_name (String.concat ", " Repdb.Experiment.ids)
    | Some entry -> (
        (* Create the timeline directory up front, so a bad path fails before
           the sweep rather than after it. *)
        Option.iter
          (fun dir ->
            match Sys.is_directory dir with
            | true -> ()
            | false -> fail "cannot create timeline directory: %s: not a directory" dir
            | exception Sys_error _ -> (
                try Sys.mkdir dir 0o755
                with Sys_error msg -> fail "cannot create timeline directory: %s" msg))
          timeline_dir;
        match with_jobs jobs (fun pool -> entry.run ~pool ~base ~steps) with
        | exception (Invalid_argument msg | Failure msg) -> fail "%s" msg
        | outcome ->
            (match outcome with
            | Repdb.Experiment.Figure fig ->
                if csv then print_string (Repdb.Experiment.to_csv fig)
                else begin
                  Fmt.pr "%a@." Repdb.Experiment.pp_figure fig;
                  print_string (Repdb.Experiment.render_ascii fig)
                end
            | Repdb.Experiment.Reports rs -> Fmt.pr "%a@." Repdb.Experiment.pp_reports rs);
            (match timeline_dir with
            | None -> ()
            | Some dir ->
                let files = Repdb.Experiment.timeline_files outcome in
                List.iter
                  (fun (name, tl) ->
                    let dest = Filename.concat dir (name ^ ".csv") in
                    match open_out dest with
                    | exception Sys_error msg -> fail "cannot write timeline: %s" msg
                    | oc ->
                        Fun.protect
                          ~finally:(fun () -> close_out oc)
                          (fun () -> Repdb_obs.Timeline.to_csv tl (output_string oc)))
                  files;
                Fmt.epr "timeline: wrote %d files to %s@." (List.length files) dir);
            match Repdb.Experiment.violations exp_name outcome with
            | [] -> ()
            | errors ->
                List.iter (fun e -> Fmt.epr "error: %s@." e) errors;
                exit 1)
  in
  let exp_list =
    `Blocks
      (`P "Available experiments:"
      :: List.map
           (fun (e : Repdb.Experiment.entry) ->
             `P (Printf.sprintf "$(b,%s) — %s" e.exp_id e.doc))
           Repdb.Experiment.registry)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate one of the paper's figures or a sweep. Independent simulations run on \
          $(b,-j) domains. Exits 1, with one error line per failing run, when a run's replicas \
          diverged, a transaction exhausted its retries or, under $(b,--check), its history is \
          not serializable (naive's is expected not to be)."
       ~man:[ `S Manpage.s_description; exp_list ])
    Term.(
      const run $ params_term $ exp_name $ steps $ csv $ jobs_term $ timeline_dir
      $ obs_flags)

(* --- report ---------------------------------------------------------------- *)

let report_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TIMELINE"
          ~doc:"Timeline CSV produced by $(b,repdb run --timeline) or $(b,--timeline-dir).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the markdown report to $(docv) instead of stdout.")
  in
  let run src out =
    let content = In_channel.with_open_bin src In_channel.input_all in
    match Repdb_obs.Report.parse content with
    | Error msg ->
        Fmt.epr "error: %s: %s@." src msg;
        exit 1
    | Ok t -> (
        let body = Repdb_obs.Report.to_markdown t in
        match out with
        | None -> print_string body
        | Some dest ->
            (match open_out dest with
            | exception Sys_error msg ->
                Fmt.epr "error: cannot write report: %s@." msg;
                exit 1
            | oc ->
                Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body));
            Fmt.epr "report: wrote %s@." dest)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a timeline CSV as a markdown report: per-site replication-lag sparklines, \
          throughput and activity tables.")
    Term.(const run $ src $ out)

(* --- protocols / table1 ------------------------------------------------------ *)

(* Rendered from [Registry.entries] — the list [--protocol] resolves names
   against, so the listing cannot drift from what runs. *)
let protocols_cmd =
  let run () =
    List.iter
      (fun ((p : Repdb.Protocol.t), doc) ->
        let module P = (val p) in
        Fmt.pr "%-10s %-58s %s@." P.name doc
          (if P.updates_replicas then "(physically updates replicas)" else "(replicas virtual)"))
      Repdb.Registry.entries
  in
  Cmd.v (Cmd.info "protocols" ~doc:"List the available protocols.") Term.(const run $ const ())

let table1_cmd =
  let run params =
    Fmt.pr "%-32s %-8s %-24s %s@." "Parameter" "Symbol" "Default Value" "Range";
    List.iter
      (fun (name, symbol, value, range) -> Fmt.pr "%-32s %-8s %-24s %s@." name symbol value range)
      (Params.table1 params)
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table 1 (parameter settings).")
    Term.(const run $ params_term)

let () =
  let doc = "update propagation protocols for replicated databases (SIGMOD 1999 reproduction)" in
  let info = Cmd.info "repdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stats_cmd; experiment_cmd; report_cmd; protocols_cmd; table1_cmd ]))
