(* One workload, one process: timed untraced rounds, correctness oracles,
   and either the end-to-end metrics or the per-layer replays. *)

module Cluster = Repdb.Cluster
module Driver = Repdb.Driver
module Metrics = Repdb.Metrics
module Protocol = Repdb.Protocol
module Convergence = Repdb.Convergence
module Stats = Repdb_obs.Stats
module Trace = Repdb_obs.Trace
module Serializability = Repdb_txn.Serializability
module Txn = Repdb_txn.Txn
module Lock_mgr = Repdb_lock.Lock_mgr
module Fault = Repdb_fault.Fault
module W = Workloads
module R = Replay

type metric = { name : string; unit : string; value : float; samples : float list }

type opts = {
  seed : int;
  seconds : float;  (** Timed rounds continue until this much wall time has passed. *)
  txns : int option;
  slots : int option;
  check_reps : int;
  self_test : bool;
      (** The self-test shares the CPUs with the rest of the test suite, so
          there the timing check (core residual >= 0) only warns. *)
}

let min_rounds = 3
let replay_reps = 3

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  host : (string * float) list;  (** Raw times, the host-speed probe, replay verdict counts. *)
  fingerprint : string;
  problems : string list;
  warnings : string list;
}

let now = Unix.gettimeofday
let median = R.median
let sum = List.fold_left ( +. ) 0.0
let mean = function [] -> 0.0 | l -> sum l /. float_of_int (List.length l)
let fi = float_of_int
let per a b = if b = 0.0 then 0.0 else a /. b
let total f l = fi (List.fold_left (fun a x -> a + f x) 0 l)
let attempts (s : Metrics.summary) = s.commits + s.aborts

(* Host-speed normalisation. Co-tenants on a shared host slow everything by
   up to 2x for minutes at a time, longer than a run, and process CPU time
   slows with wall time. The probe ([probe.ml], its own executable) slows
   with the simulator (its first, single-table version correlated 0.97 with
   round times over 300 s in which rounds varied 2.2-4.0 s; [probe.ml] says
   why it now has two), so end-to-end times are reported in reference
   seconds: raw seconds x [reference_probe_s] / the run's median probe
   time. One probe takes about [reference_probe_s] on an idle host of the
   kind the baseline was measured on. *)
let reference_probe_s = 0.013

type probe = { ic : in_channel; oc : out_channel; mutable times : float list }

let start_probe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe" in
  if not (Sys.file_exists exe) then failwith (exe ^ " is missing; build perfbench/probe.exe");
  let ic, oc = Unix.open_process_args exe [| exe |] in
  { ic; oc; times = [] }

let sample_probe p =
  let t0 = now () in
  output_string p.oc "go\n";
  flush p.oc;
  ignore (input_line p.ic);
  let t = now () -. t0 in
  p.times <- t :: p.times;
  t

(* Closing its input ends the probe; [close_process] waits for it. *)
let stop_probe p = ignore (Unix.close_process (p.ic, p.oc))

let updates_replicas proto =
  let module P = (val proto : Protocol.S) in
  P.updates_replicas

(* Set-up is placement generation plus cluster construction: what
   [Cluster.create] does, with the placement drawn from the pinned scenario
   seed instead of the stream seed. *)
let setup ?(trace = false) ?trace_capacity (j : W.job) =
  let t0 = now () in
  let placement = W.placement j in
  let c = Cluster.create_with ~trace ?trace_capacity j.params placement in
  (now () -. t0, placement, c)

let run_on c proto =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = Driver.run_on c proto in
  (now () -. t0, Gc.minor_words () -. w0, r)

let same_outcome (a : Driver.report) (b : Driver.report) =
  compare a.summary b.summary = 0 && a.sim_events = b.sim_events

let label (j : W.job) = Printf.sprintf "%s/slot%d/seed%d" j.protocol j.slot j.params.seed

(* Per-job state gathered by the timed rounds. [first] is the round-1
   report; later rounds must reproduce it exactly. *)
type job_state = {
  job : W.job;
  proto : Protocol.t;
  mutable walls : float list;
  mutable first : Driver.report option;
  mutable failure : string option;
}

let fail js what = if js.failure = None then js.failure <- Some what

let guard js f = try f () with e -> fail js (Printexc.to_string e)

(* Oracles every untraced run must pass: quiescence ([run_on] raises
   otherwise) and replica convergence for protocols that update replicas. *)
let check_report js (r : Driver.report) =
  match r.divergent with
  | Some (_ :: _ as d) -> fail js (Printf.sprintf "%d divergent copies" (List.length d))
  | _ -> ()

type rounds = {
  words_per_commit : float list;
  wall_totals : float list;  (** Summed job walls. *)
  setup_totals : float list;  (** Summed set-up time of every job. *)
}

(* Each round first sets every job up once without running it (the set-up
   sample, spread over the run so a brief host stall cannot move them all),
   then sets up and runs every job. *)
let timed_rounds opts states ~sample =
  let t_start = now () in
  let n = ref 0 and words = ref [] and walls = ref [] and setups = ref [] in
  while !n < min_rounds || now () -. t_start < opts.seconds do
    sample ();
    setups := sum (List.map (fun js -> let t, _, _ = setup js.job in t) states) :: !setups;
    let w = ref 0.0 and commits = ref 0 and round_wall = ref 0.0 in
    List.iter
      (fun js ->
        if js.failure = None then
          guard js (fun () ->
              let _, _, c = setup js.job in
              sample ();
              let wall, dw, r = run_on c js.proto in
              js.walls <- wall :: js.walls;
              round_wall := !round_wall +. wall;
              w := !w +. dw;
              commits := !commits + r.summary.commits;
              check_report js r;
              match js.first with
              | None -> js.first <- Some r
              | Some r0 -> if not (same_outcome r0 r) then fail js "round outcome differs from round 1"))
      states;
    words := per !w (fi !commits) :: !words;
    walls := !round_wall :: !walls;
    incr n
  done;
  { words_per_commit = !words; wall_totals = !walls; setup_totals = !setups }

let first js = Option.get js.first
let ok js = js.failure = None && js.first <> None
let summaries states = List.filter_map (fun js -> if ok js then Some (first js).summary else None) states

(* Per-job median wall of the timed rounds, summed: the median round time,
   taken job by job so one noisy job does not move the whole round. *)
let wall_of states = sum (List.map (fun js -> median js.walls) states)

(* A run of [js.job] with [record_history] on; its outcome must equal the
   untraced twin's and its conflict graph must be acyclic. *)
let history_run js =
  let j = { js.job with params = { js.job.params with record_history = true } } in
  let _, placement, c = setup j in
  let _, _, r = run_on c js.proto in
  check_report js r;
  if js.first <> None && not (same_outcome (first js) r) then fail js "history run differs from untraced run";
  (match r.serializability with
  | Some Serializability.Serializable -> ()
  | Some v -> fail js (Fmt.str "not 1SR: %a" Serializability.pp_verdict v)
  | None -> fail js "history not recorded");
  (placement, c, r)

let m name unit ?(samples = []) value = { name; unit; value; samples }

(* --- end-to-end ---------------------------------------------------------- *)

let end_to_end opts states rounds probe =
  let peak_heap_mb = fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  (* 1SR on every job, and the checkers timed on every job's history. The
     checkers are deterministic and bursts of host noise shorter than one
     repetition hit some repetitions and not others, so each job counts its
     fastest repetition. Every repetition starts from a collected heap, so
     one does not pay for the garbage of the one before. The checks run
     after the rounds, so their times are normalised by the probes taken
     among them. *)
  let reps = max 1 opts.check_reps in
  let rep_totals = Array.make reps 0.0 and fastest = ref 0.0 and check_probes = ref [] in
  List.iter
    (fun js ->
      if ok js then
        match history_run js with
        | exception e -> fail js (Printexc.to_string e)
        | _, c, _ ->
            let updates = updates_replicas js.proto in
            let times =
              Array.init reps (fun _ ->
                  Gc.full_major ();
                  check_probes := sample_probe probe :: !check_probes;
                  fst
                    (R.time (fun () ->
                         ignore (Serializability.check c.history);
                         if updates then ignore (Convergence.check c))))
            in
            Array.iteri (fun i t -> rep_totals.(i) <- rep_totals.(i) +. t) times;
            fastest := !fastest +. Array.fold_left Float.min infinity times)
    states;
  let check_samples = Array.to_list rep_totals in
  let ss = summaries states in
  let probe_s = median probe.times in
  let speed = reference_probe_s /. probe_s in
  let norm = List.map (fun t -> t *. speed) in
  let check_probe_s = if !check_probes = [] then probe_s else median !check_probes in
  let check_speed = reference_probe_s /. check_probe_s in
  let host =
    [
      ("probe_ms", 1e3 *. probe_s);
      ("check_probe_ms", 1e3 *. check_probe_s);
      ("raw_wall_s", wall_of states);
      ("raw_setup_s", median rounds.setup_totals);
      ("raw_check_s", !fastest);
    ]
  in
  ( [
    m "wall_s" "s" ~samples:(norm rounds.wall_totals) (speed *. wall_of states);
    m "minor_words_per_txn" "words" ~samples:rounds.words_per_commit (median rounds.words_per_commit);
    m "peak_heap_mb" "MB" peak_heap_mb;
    m "setup_s" "s" ~samples:(norm rounds.setup_totals) (speed *. median rounds.setup_totals);
    m "check_s" "s" ~samples:(List.map (fun t -> t *. check_speed) check_samples) (check_speed *. !fastest);
    m "sim_tput_per_site" "1/s" (mean (List.map (fun (s : Metrics.summary) -> s.throughput_per_site) ss));
    m "sim_p50_response_ms" "ms" (mean (List.map (fun (s : Metrics.summary) -> s.p50_response) ss));
    m "sim_p99_response_ms" "ms" (mean (List.map (fun (s : Metrics.summary) -> s.p99_response) ss));
    m "sim_commit_pct" "%" (100.0 *. per (total (fun s -> s.Metrics.commits) ss) (total attempts ss));
    m "sim_msgs_per_commit" "count" (per (total (fun s -> s.Metrics.messages) ss) (total (fun s -> s.Metrics.commits) ss));
  ],
    host )

(* --- per layer ----------------------------------------------------------- *)

type layers = {
  mutable wall : float;  (** Untraced wall of the replayed jobs. *)
  mutable traced_wall : float;
  mutable events : int;
  mutable trace_events : int;
  mutable lock_self : float;
  mutable net_self : float;
  mutable sends : int;
  mutable drops : int;
  mutable store_self : float;
  mutable reads : int;
  mutable writes : int;
  mutable wal_records : int;
  mutable occ_self : float;
  mutable occ_accepted : int;  (** Verdicts of the certifier replays. *)
  mutable occ_rejected : int;
  mutable gen_self : float;
  mutable gen_calls : int;
  mutable placement_s : float;
  mutable accesses : int;
  mutable check_s : float;
  mutable warnings : string list;
}

let trace_capacity = 1 lsl 21
let max_trace_capacity = 1 lsl 25

let rec traced_run js capacity =
  let _, _, c = setup ~trace:true ~trace_capacity:capacity js.job in
  let wall, _, r = run_on c js.proto in
  if Trace.dropped r.trace > 0 && capacity < max_trace_capacity then traced_run js (capacity * 4) else (wall, r)

let occ_reasons = [ Txn.Validation_failed; Txn.First_committer_lost; Txn.Dangerous_structure ]

(* A fresh, never-run cluster of [js]'s job: the replays' lock managers,
   latency function and fault injector are the ones the run started with. *)
let fresh_cluster js () =
  let _, _, c = setup js.job in
  c

(* The traced run's lock and message streams, replayed. Returns the run's
   transaction begin and commit times. *)
let replay_traced acc js =
  let r0 = first js in
  let traced_wall, r = traced_run js trace_capacity in
  acc.traced_wall <- acc.traced_wall +. traced_wall;
  acc.trace_events <- acc.trace_events + Trace.length r.trace;
  if Trace.dropped r.trace > 0 then fail js (Printf.sprintf "trace dropped %d events" (Trace.dropped r.trace));
  (* The network schedules one trace-only timer per dropped transmission
     attempt (to stamp its Msg_drop event); nothing else may differ. *)
  if compare r0.summary r.summary <> 0 || r.sim_events - r.msg_drops <> r0.sim_events then
    fail js "traced run differs from untraced run";
  let lock_ops = R.lock_stream r.trace in
  let self, (st : Lock_mgr.stats) =
    R.self_time ~reps:replay_reps ~prepare:(fresh_cluster js) (fun c ~empty -> R.replay_lock c lock_ops ~empty)
  in
  acc.lock_self <- acc.lock_self +. self;
  let run = r.lock_stats in
  if st.acquires <> run.acquires || st.waits <> run.waits || st.timeouts <> run.timeouts then
    fail js
      (Printf.sprintf "lock replay acquires/waits/timeouts %d/%d/%d, run %d/%d/%d" st.acquires st.waits
         st.timeouts run.acquires run.waits run.timeouts);
  let sends = R.send_stream r.trace in
  let self, (sent, dropped) =
    R.self_time ~reps:replay_reps ~prepare:(fresh_cluster js) (fun c ~empty -> R.replay_net c sends ~empty)
  in
  acc.net_self <- acc.net_self +. self;
  acc.sends <- acc.sends + sent;
  acc.drops <- acc.drops + dropped;
  if sent <> r.summary.messages || sent <> Array.length sends then
    fail js (Printf.sprintf "net replay sent %d, run %d" sent r.summary.messages);
  if dropped <> r.msg_drops then fail js (Printf.sprintf "net replay dropped %d, run %d" dropped r.msg_drops);
  R.txn_times r.trace

(* The certifier replay of an occ-epoch or ssi job. occ-epoch's replay is
   exact: it must accept every committed transaction. ssi's certification
   times are approximate, so a differing verdict count only warns. *)
let replay_certifier acc js (c : Cluster.t) accesses ~times =
  let sets = R.occ_sets accesses in
  let stream =
    match js.job.protocol with
    | "occ-epoch" ->
        let g, gids = Serializability.conflict_graph c.history in
        Option.map
          (fun order -> R.validator_stream ~order:(List.map (fun v -> gids.(v)) order) sets)
          (Repdb_graph.Digraph.topo_sort g)
    | "ssi" -> Some (R.tracker_stream ~times accesses sets)
    | _ -> None
  in
  Option.iter
    (fun stream ->
      let self, (accepted, rejected) =
        R.self_time ~reps:replay_reps ~prepare:ignore (fun () -> R.replay_occ stream)
      in
      acc.occ_self <- acc.occ_self +. self;
      acc.occ_accepted <- acc.occ_accepted + accepted;
      acc.occ_rejected <- acc.occ_rejected + rejected;
      let commits = (first js).summary.commits in
      if accepted <> commits || rejected > 0 then begin
        let what =
          Printf.sprintf "%s certifier replay accepted %d and rejected %d, run committed %d" js.job.protocol
            accepted rejected commits
        in
        if js.job.protocol = "occ-epoch" then fail js what else acc.warnings <- what :: acc.warnings
      end)
    stream

(* The history run's store accesses and certified read/write sets, the
   checker, and transaction generation, replayed. *)
let replay_history acc js ~times =
  let p = js.job.params and r0 = first js in
  let n_sites = p.n_sites in
  let placement, c, _ = history_run js in
  let accesses = R.access_stream c.history in
  let versioned = Array.exists (fun a -> a.R.a_version >= 0) accesses in
  let self, (reads, writes, wal) =
    R.self_time ~reps:replay_reps
      ~prepare:(fun () ->
        R.store_state ~n_sites ~placement ~faulty:(not (Fault.is_empty p.faults)) ~versioned accesses)
      (fun st ~empty -> R.replay_store st accesses ~empty)
  in
  acc.store_self <- acc.store_self +. self;
  acc.reads <- acc.reads + reads;
  acc.writes <- acc.writes + writes;
  acc.wal_records <- acc.wal_records + wal;
  replay_certifier acc js c accesses ~times;
  acc.accesses <- acc.accesses + Repdb_txn.History.size c.history;
  acc.check_s <-
    acc.check_s +. median (List.init replay_reps (fun _ -> fst (R.time (fun () -> Serializability.check c.history))));
  (* Transaction generation: one draw per attempt at each site. *)
  let per_site = Array.make n_sites 0 in
  List.iter
    (fun (s : Metrics.site_summary) -> per_site.(s.site) <- per_site.(s.site) + s.s_commits + s.s_aborts)
    r0.summary.per_site;
  let self, calls =
    R.self_time ~reps:replay_reps ~prepare:(fun () -> R.gen_state p placement per_site) R.replay_gen
  in
  acc.gen_self <- acc.gen_self +. self;
  acc.gen_calls <- acc.gen_calls + calls;
  acc.placement_s <-
    acc.placement_s +. median (List.init replay_reps (fun _ -> fst (R.time (fun () -> W.placement js.job))))

let replay_job acc js =
  acc.wall <- acc.wall +. median js.walls;
  acc.events <- acc.events + (first js).sim_events;
  let times = replay_traced acc js in
  replay_history acc js ~times

let hist_mean base name q =
  mean
    (List.map
       (fun js -> Stats.percentile_total (Stats.histogram (first js).site_stats name) q)
       base)

let per_layer opts states =
  let base = List.filter (fun js -> js.job.slot = 0 && ok js) states in
  let acc =
    {
      wall = 0.0; traced_wall = 0.0; events = 0; trace_events = 0; lock_self = 0.0; net_self = 0.0;
      sends = 0; drops = 0; store_self = 0.0; reads = 0; writes = 0; wal_records = 0; occ_self = 0.0;
      occ_accepted = 0; occ_rejected = 0; gen_self = 0.0; gen_calls = 0; placement_s = 0.0; accesses = 0;
      check_s = 0.0; warnings = [];
    }
  in
  List.iter (fun js -> guard js (fun () -> replay_job acc js)) base;
  (* The sim layer's replay is the bare kernel at the jobs' event count. *)
  let kernel =
    List.init replay_reps (fun _ ->
        Gc.full_major ();
        R.time (fun () -> R.kernel_loops acc.events))
  in
  let sim_self = median (List.map fst kernel) in
  let k_events, k_words = snd (List.hd kernel) in
  let residual =
    acc.wall -. (sim_self +. acc.net_self +. acc.lock_self +. acc.store_self +. acc.occ_self +. acc.gen_self)
  in
  let problems, warnings =
    if residual >= 0.0 then ([], acc.warnings)
    else
      let what = Printf.sprintf "core residual is negative (%.4f s)" residual in
      if opts.self_test then ([], what :: acc.warnings) else ([ what ], acc.warnings)
  in
  let reports = List.map first base in
  let lock f = total (fun (r : Driver.report) -> f r.lock_stats) reports in
  let acquires = lock (fun s -> s.Lock_mgr.acquires) and waits = lock (fun s -> s.waits) in
  let events = fi acc.events in
  let share self = 100.0 *. per self acc.wall in
  let occ_jobs = List.filter (fun (r : Driver.report) -> r.protocol = "ssi" || r.protocol = "occ-epoch") reports in
  let certified = total (fun (r : Driver.report) -> r.summary.commits) occ_jobs in
  let rejected =
    total
      (fun (r : Driver.report) ->
        List.fold_left (fun a (why, n) -> if List.mem why occ_reasons then a + n else a) 0 r.summary.aborts_by_reason)
      occ_jobs
  in
  let commits = total (fun (r : Driver.report) -> r.summary.commits) reports in
  let tried = total (fun (r : Driver.report) -> attempts r.summary) reports in
  let heals = List.filter_map (fun (r : Driver.report) -> r.heal) reports in
  let ss = summaries states in
  let metrics =
    [
      m "sim.events" "count" events;
      m "sim.events_per_s" "1/s" (per events acc.wall);
      m "sim.ns_per_event" "ns" (1e9 *. per sim_self (fi k_events));
      m "sim.words_per_event" "words" (per k_words (fi k_events));
      m "sim.share" "%" (share sim_self);
      m "net.sends" "count" (fi acc.sends);
      m "net.drops" "count" (fi acc.drops);
      m "net.ns_per_send" "ns" (1e9 *. per acc.net_self (fi acc.sends));
      m "net.share" "%" (share acc.net_self);
      m "lock.acquires" "count" acquires;
      m "lock.waits" "count" waits;
      m "lock.wait_ratio" "ratio" (per waits acquires);
      m "lock.timeouts" "count" (lock (fun s -> s.timeouts));
      m "lock.deadlocks" "count" (lock (fun s -> s.deadlock_aborts));
      m "lock.wait_ms_p50" "ms" (hist_mean base "span.lock" 0.5);
      m "lock.wait_ms_p99" "ms" (hist_mean base "span.lock" 0.99);
      m "lock.ns_per_acquire" "ns" (1e9 *. per acc.lock_self acquires);
      m "lock.share" "%" (share acc.lock_self);
      m "store.reads" "count" (fi acc.reads);
      m "store.writes" "count" (fi acc.writes);
      m "store.ns_per_op" "ns" (1e9 *. per acc.store_self (fi (acc.reads + acc.writes)));
      m "wal.records" "count" (fi acc.wal_records);
      m "store.share" "%" (share acc.store_self);
      m "occ.certified" "count" certified;
      m "occ.rejected" "count" rejected;
      m "occ.accept_ratio" "ratio" (per certified (certified +. rejected));
      m "occ.ns_per_certify" "ns" (1e9 *. per acc.occ_self (fi (acc.occ_accepted + acc.occ_rejected)));
      m "occ.share" "%" (share acc.occ_self);
      m "workload.gen_ns_per_txn" "ns" (1e9 *. per acc.gen_self (fi acc.gen_calls));
      m "workload.placement_s" "s" acc.placement_s;
      m "workload.share" "%" (share acc.gen_self);
      m "txn.history_accesses" "count" (fi acc.accesses);
      m "txn.check_ns_per_access" "ns" (1e9 *. per acc.check_s (fi acc.accesses));
      m "core.attempts" "count" tried;
      m "core.useful_ratio" "ratio" (per commits tried);
      m "core.secondary_applies" "count" (total (fun (r : Driver.report) -> r.summary.n_propagations) reports);
      m "core.prop_delay_ms_p99" "ms" (hist_mean base "prop.delay" 0.99);
      m "core.prop_wait_ms_p99" "ms" (hist_mean base "span.prop" 0.99);
      m "core.exec_ms_p50" "ms" (hist_mean base "span.exec" 0.5);
      m "core.residual_ns_per_event" "ns" (1e9 *. per residual events);
      m "core.share" "%" (share residual);
      m "obs.trace_events" "count" (fi acc.trace_events);
      m "obs.trace_overhead_pct" "%" (100.0 *. per (acc.traced_wall -. acc.wall) acc.wall);
      m "heal.failovers" "count" (total (fun (h : Repdb.Heal_exec.summary) -> h.failovers) heals);
      m "heal.mttr_ms" "ms" (mean (List.map (fun (h : Repdb.Heal_exec.summary) -> h.mttr_mean) heals));
      m "heal.repaired_items" "count" (total (fun (h : Repdb.Heal_exec.summary) -> h.repaired_items) heals);
      m "fault.crashes" "count" (total (fun (r : Driver.report) -> r.crashes) reports);
      m "reconfig.stall_ms" "ms" (sum (List.map (fun (r : Driver.report) -> r.reconfig_stall) reports));
      m "sim_abort_pct" "%" (mean (List.map (fun (s : Metrics.summary) -> s.abort_rate) ss));
      m "sim_prop_delay_ms" "ms" (mean (List.map (fun (s : Metrics.summary) -> s.avg_propagation) ss));
      m "sim_unavail_ms" "ms" (mean (List.map (fun (s : Metrics.summary) -> s.unavail_ms) ss));
    ]
  in
  let host =
    [
      ("occ_replay_accepted", fi acc.occ_accepted);
      ("occ_replay_rejected", fi acc.occ_rejected);
      ("residual_s", residual);
    ]
  in
  (metrics, host, problems, warnings)

(* --- driver ------------------------------------------------------------- *)

let fingerprint states =
  let outcomes =
    List.map
      (fun js ->
        (js.job.protocol, js.job.slot, Option.map (fun (r : Driver.report) -> (r.summary, r.sim_events)) js.first))
      states
  in
  Digest.to_hex (Digest.string (Marshal.to_string outcomes [ Marshal.No_sharing ]))

let run (w : W.t) opts ~trace =
  let jobs = W.jobs ?txns:opts.txns ?slots:opts.slots w ~seed:opts.seed in
  let states =
    List.map (fun job -> { job; proto = W.protocol job; walls = []; first = None; failure = None }) jobs
  in
  let metrics, host, problems, warnings =
    if trace then
      let _ = timed_rounds opts states ~sample:ignore in
      per_layer opts states
    else
      let probe = start_probe () in
      Fun.protect
        ~finally:(fun () -> stop_probe probe)
        (fun () ->
          let rounds = timed_rounds opts states ~sample:(fun () -> ignore (sample_probe probe)) in
          let metrics, host = end_to_end opts states rounds probe in
          (metrics, host, [], []))
  in
  let job_attempts js =
    match js.first with
    | Some r -> attempts r.summary
    | None -> js.job.params.n_sites * js.job.params.threads_per_site * js.job.params.txns_per_thread
  in
  let failed_jobs = List.filter (fun js -> js.failure <> None) states in
  {
    workload = w.name;
    correct = failed_jobs = [] && problems = [];
    attempted = List.fold_left (fun a js -> a + job_attempts js) 0 states;
    failed = List.fold_left (fun a js -> a + job_attempts js) 0 failed_jobs;
    metrics;
    host;
    fingerprint = fingerprint states;
    problems =
      problems
      @ List.map (fun js -> Printf.sprintf "%s: %s" (label js.job) (Option.get js.failure)) failed_jobs;
    warnings;
  }
