module Params = Repdb_workload.Params
module Pool = Repdb_par.Pool

type point = { x : float; reports : (string * Driver.report) list }
type figure = { id : string; title : string; xlabel : string; points : point list }
type outcome = Figure of figure | Reports of (string * Driver.report) list

type entry = {
  exp_id : string;
  doc : string;
  run : pool:Pool.t option -> base:Params.t -> steps:int -> outcome;
}

(* The one fan-out. Each job is a self-contained [Driver.run] (own [Sim.t],
   [Rng], cluster and trace) run in the caller or on the pool; [Pool.map]
   lands results by input index, so both paths return the same list (see
   the determinism test in [test/test_par.ml]). *)
let run_jobs pool jobs =
  let jobs = Array.of_list jobs in
  let run (label, job) = (label, job ()) in
  Array.to_list
    (match pool with None -> Array.map run jobs | Some pool -> Pool.map pool jobs ~f:run)

let job ?placement label params p = (label, fun () -> Driver.run ?placement params p)
let each params protocols = List.map (fun p -> job (Protocol.name p) params p) protocols

(* A swept figure: every protocol at every x of [values steps], run on
   [params_of base x]. The jobs go out row-major by point and come back
   regrouped in figure order. *)
let sweep exp_id doc ~xlabel ~values protocols params_of =
  let run ~pool ~base ~steps =
    let xs = values steps in
    let reports = run_jobs pool (List.concat_map (fun x -> each (params_of base x) protocols) xs) in
    let n = List.length protocols in
    let points =
      List.mapi (fun i x -> { x; reports = List.filteri (fun j _ -> j / n = i) reports }) xs
    in
    Figure { id = exp_id; title = doc; xlabel; points }
  in
  { exp_id; doc; run }

(* A flat report list: [jobs base] are the labelled runs. *)
let report_list exp_id doc jobs =
  { exp_id; doc; run = (fun ~pool ~base ~steps:_ -> Reports (run_jobs pool (jobs base))) }

let probs steps = List.init (steps + 1) (fun i -> float_of_int i /. float_of_int steps)
let fixed xs _steps = xs
let backedge : Protocol.t = (module Backedge_proto)
let psl : Protocol.t = (module Psl)
let dag_wt : Protocol.t = (module Dag_wt)
let central : Protocol.t = (module Central)
let be_psl = [ backedge; psl ]
let be_dag_psl = [ backedge; dag_wt; psl ]

(* b = 0 keeps the copy graph a DAG, so DAG(WT) and DAG(T) apply. *)
let acyclic base = { base with Params.backedge_prob = 0.0 }

(* Figure 3's write-heavy extreme: r = 0.5, no read-only transactions. *)
let extreme base = { base with Params.replication_prob = 0.5; read_txn_prob = 0.0 }

(* A clean two-way split of the sites (first half vs second half) from
   t = 100 ms lasting [d] ms; [d = 0] is the unpartitioned baseline. A
   250 ms deadline bounds parked eager work, backoff retry lets clients ride
   the split out and PSL serves 60 s bounded-stale reads locally meanwhile. *)
let partitioned base d =
  let base =
    {
      (acyclic base) with
      txn_deadline = 250.0;
      retry = Params.default_backoff;
      stale_reads = 60_000.0;
    }
  in
  let m = base.n_sites in
  let near = List.init (m / 2) Fun.id and far = List.init (m - (m / 2)) (fun i -> (m / 2) + i) in
  if d <= 0.0 then base
  else
    {
      base with
      faults =
        {
          Repdb_fault.Fault.empty with
          partitions = [ { from_t = 100.0; until_t = 100.0 +. d; groups = [ near; far ] } ];
        };
    }

(* Site 1 (a primary for ~1/m of the items) crashes mid-run and corruption
   scrambles site 2's replica copies, with healing on and no operator
   recovery: the healer must detect, fail over and repair on its own at
   suspicion threshold [phi]. Deadline + retry keep the failover drain
   bounded (PSL's synchronous remote reads need the deadline). *)
let healing base phi =
  {
    (acyclic base) with
    heal = true;
    phi_threshold = phi;
    txn_deadline = 400.0;
    retry = Params.default_backoff;
    txns_per_thread = max base.Params.txns_per_thread 200;
    faults =
      {
        Repdb_fault.Fault.empty with
        crashes = [ { site = 1; at = 400.0; down_for = 800.0 } ];
        corruptions = [ { c_site = 2; c_at = 600.0; c_prob = 0.3 } ];
      };
  }

(* 200 sites x 100k items on the compact placement layer. s = 6/m keeps
   ~3 replicas per replicated item while the placement stays partial;
   BackEdge and PSL keep b = 0.2 so their eager paths fire, DAG(WT) needs
   b = 0. Site and item counts override [base]. *)
let large base =
  let m = 200 in
  let params b =
    {
      base with
      Params.n_sites = m;
      n_items = 100_000;
      threads_per_site = 1;
      replication_prob = 0.5;
      site_prob = min 1.0 (6.0 /. float_of_int m);
      backedge_prob = b;
      n_machines = max 3 (m / 8);
    }
  in
  [ job "backedge" (params 0.2) backedge; job "dag-wt" (params 0.0) dag_wt; job "psl" (params 0.2) psl ]

(* Section 4.2 in protocol form: a hub site (numbered last) replicates 30
   reference items to every spoke, each spoke owns 10 local items. Under
   the identity order every copy-graph edge is a backedge and each hub
   update runs the eager path; the order derived from a greedy feedback
   arc set puts the hub first and makes the whole graph forward. Both runs
   share [placement] read-only; each builds its own cluster. *)
let site_order base =
  let m = base.Params.n_sites in
  let hub = m - 1 in
  let n_reference = 30 and n_local = 10 in
  let n_items = n_reference + ((m - 1) * n_local) in
  let primary = Array.make n_items hub in
  let replicas = Array.make n_items [] in
  let spokes = List.init (m - 1) Fun.id in
  for i = 0 to n_reference - 1 do
    replicas.(i) <- spokes
  done;
  for s = 0 to m - 2 do
    for k = 0 to n_local - 1 do
      primary.(n_reference + (s * n_local) + k) <- s
    done
  done;
  let placement = Repdb_workload.Placement.make ~n_sites:m ~n_items ~primary ~replicas in
  let g = Repdb_workload.Placement.copy_graph placement in
  let fas = Repdb_graph.Backedge.greedy_fas g ~weight:(fun _ _ -> 1.0) in
  let order =
    match Repdb_graph.Digraph.topo_sort (Repdb_graph.Digraph.remove_edges g fas) with
    | Some o -> Array.of_list o
    | None -> assert false
  in
  let ordered order =
    Protocol.variant ~name:"backedge"
      ~create:(fun c -> Backedge_proto.create_with_order c order)
      (module Backedge_proto)
  in
  let params = { base with Params.n_items } in
  [
    job ~placement "identity-order" params (ordered (Array.init m Fun.id));
    job ~placement "fas-order" params (ordered order);
  ]

(* --- registry --------------------------------------------------------------
   One row per experiment. The CLI's `experiment` subcommand derives both its
   help text and its dispatch from this list, so the two cannot drift
   (test_reconfig pins the ids). Only the probability sweeps use [steps]. *)

let registry =
  [
    sweep "fig2a" "throughput vs backedge probability (Figure 2a)"
      ~xlabel:"backedge probability b" ~values:probs be_psl (fun base b ->
        { base with backedge_prob = b });
    sweep "fig2b" "throughput vs replication probability (Figure 2b)"
      ~xlabel:"replication probability r" ~values:probs be_psl (fun base r ->
        { base with replication_prob = r });
    sweep "fig3a" "throughput vs read-op probability, b=0 (Figure 3a)"
      ~xlabel:"read operation probability" ~values:probs be_psl (fun base p ->
        { (extreme base) with backedge_prob = 0.0; read_op_prob = p });
    sweep "fig3b" "throughput vs read-op probability, b=1 (Figure 3b)"
      ~xlabel:"read operation probability" ~values:probs be_psl (fun base p ->
        { (extreme base) with backedge_prob = 1.0; read_op_prob = p });
    (* Section 5.3.4. *)
    report_list "resp" "response times and propagation delay at the defaults" (fun base ->
        each base be_psl);
    (* Table 1's ranges (the tech report's sweeps). *)
    sweep "sites" "throughput vs number of sites" ~xlabel:"sites m"
      ~values:(fixed [ 3.0; 6.0; 9.0; 12.0; 15.0 ])
      be_psl
      (fun base m -> { base with n_sites = int_of_float m });
    sweep "threads" "throughput vs threads per site" ~xlabel:"threads/site"
      ~values:(fixed [ 1.0; 2.0; 3.0; 4.0; 5.0 ])
      be_psl
      (fun base k -> { base with threads_per_site = int_of_float k });
    sweep "latency" "throughput vs network latency" ~xlabel:"latency (ms)"
      ~values:(fixed [ 0.15; 1.0; 5.0; 20.0; 50.0; 100.0 ])
      be_psl
      (fun base l -> { base with latency = l });
    sweep "readtxn" "throughput vs read-transaction probability"
      ~xlabel:"read transaction probability" ~values:probs be_psl (fun base p ->
        { base with read_txn_prob = p });
    (* Ablations. *)
    report_list "ablation" "all protocols at the defaults (b=0)" (fun base ->
        each (acyclic base) (Registry.all @ [ Registry.dag_t_pipelined ]));
    (* The introduction's "eager does not scale" and Section 1.2's "the
       central site becomes a bottleneck". *)
    sweep "eager-scaling" "eager/central/lazy-master vs lazy as sites grow" ~xlabel:"sites m"
      ~values:(fixed [ 3.0; 6.0; 9.0; 12.0; 15.0 ])
      [ (module Eager); central; (module Lazy_master); backedge; psl ]
      (fun base m -> { base with n_sites = int_of_float m });
    (* Section 5.1 expects the general per-component tree to win. *)
    sweep "tree-routing" "BackEdge chain tree vs general per-component tree"
      ~xlabel:"backedge probability b" ~values:probs [ backedge; Registry.backedge_general ]
      (fun base b -> { base with backedge_prob = b });
    (* The paper's 50 ms timeout vs local waits-for-graph detection (the
       timeout stays as a distributed-deadlock backstop). *)
    report_list "deadlock-policy" "timeout vs waits-for-graph deadlock handling" (fun base ->
        List.concat_map
          (fun (label, policy) ->
            List.map
              (fun p ->
                job (Protocol.name p ^ "/" ^ label) { base with Params.deadlock_policy = policy } p)
              be_psl)
          [ ("timeout", `Timeout); ("detect", `Detect) ]);
    (* The cost of Section 3.3's progress machinery. *)
    sweep "dummy-period" "DAG(T) propagation delay vs dummy idle threshold"
      ~xlabel:"dummy idle threshold (ms)"
      ~values:(fixed [ 10.0; 25.0; 50.0; 100.0; 200.0 ])
      [ (module Dag_t) ]
      (fun base d -> { (acyclic base) with dummy_idle = d; epoch_period = 2.0 *. d });
    sweep "hotspot" "throughput vs hot-access probability"
      ~xlabel:"hot access probability (hot set = 20% of the pool)"
      ~values:(fixed [ 0.0; 0.3; 0.5; 0.7; 0.9 ])
      be_psl
      (fun base h -> { base with hot_access_prob = h });
    (* The certifier's central site lives on the straggler. *)
    sweep "straggler" "throughput vs CPU slowdown of machine 0" ~xlabel:"straggler slowdown factor"
      ~values:(fixed [ 1.0; 2.0; 4.0; 8.0 ])
      [ backedge; psl; central ]
      (fun base f -> { base with straggler_machine = 0; straggler_factor = f });
    report_list "site-order" "BackEdge identity order vs FAS-derived order" site_order;
    (* Extensions. Crash instants and downtimes, and reconfiguration plans,
       are drawn from the run seed: every figure is deterministic in [base]. *)
    sweep "faults" "throughput and propagation lag vs injected crashes"
      ~xlabel:"site crashes injected"
      ~values:(fixed [ 0.0; 1.0; 2.0; 4.0; 8.0 ])
      be_dag_psl
      (fun base k ->
        {
          (acyclic base) with
          faults =
            Repdb_fault.Fault.synthetic ~n_sites:base.n_sites ~seed:base.seed
              ~n_crashes:(int_of_float k) ();
        });
    (* The mid-run throughput dip lands in the reconfig_stall_ms column. *)
    sweep "reconfig" "throughput and switch cost vs online reconfigurations"
      ~xlabel:"reconfiguration steps executed"
      ~values:(fixed [ 0.0; 1.0; 2.0; 4.0; 8.0 ])
      be_dag_psl
      (fun base k ->
        {
          (acyclic base) with
          reconfig =
            Repdb_reconfig.Reconfig.synthetic ~n_sites:base.n_sites ~n_items:base.n_items
              ~seed:base.seed ~n_steps:(int_of_float k) ();
        });
    sweep "partition" "availability, deadline aborts and stale reads vs partition duration"
      ~xlabel:"partition duration (ms)"
      ~values:(fixed [ 0.0; 250.0; 500.0; 1000.0; 2000.0 ])
      be_dag_psl partitioned;
    (* Optimistic execution wins on commit rate at low skew and pays with
       validation aborts instead of lock waits under heavy skew: the
       per-reason aborts_* columns show the crossover. *)
    sweep "occ" "optimistic (occ-epoch, ssi) vs locking vs Zipf contention"
      ~xlabel:"zipf skew theta (item selection)"
      ~values:(fixed [ 0.0; 0.5; 0.7; 0.9; 0.99 ])
      [ (module Occ_epoch); (module Ssi); backedge; dag_wt; psl ]
      (fun base theta -> { (acyclic base) with zipf_theta = theta });
    (* Low thresholds detect fast but risk false failovers; high ones sit
       through the outage (the mttr_ms / unavail_ms columns). *)
    sweep "heal" "self-healing MTTR and availability vs detector threshold"
      ~xlabel:"phi suspicion threshold"
      ~values:(fixed [ 2.0; 4.0; 8.0; 16.0; 32.0 ])
      be_dag_psl healing;
    (* The noise band around the single-run figures; [base.seed] is ignored. *)
    sweep "variance" "BackEdge and PSL throughput at the defaults under seeds 42-46" ~xlabel:"seed"
      ~values:(fixed [ 42.0; 43.0; 44.0; 45.0; 46.0 ])
      be_psl
      (fun base s -> { base with seed = int_of_float s });
    report_list "large" "BackEdge, DAG(WT) and PSL at 200 sites x 100k items" large;
  ]

let ids = List.map (fun e -> e.exp_id) registry
let find id = List.find_opt (fun e -> e.exp_id = id) registry

(* --- oracles -----------------------------------------------------------------
   Every report of a run answers to the oracles it carries: convergence and
   liveness always, 1SR when the history was recorded. Naive's non-1SR
   history is the one expected violation, Example 1.1's negative control. *)

let expected_violation = Naive.name

let witness (r : Driver.report) =
  let not_1sr =
    match r.serializability with
    | Some (Not_serializable _ as v) when r.protocol <> expected_violation ->
        [ Fmt.str "%a" Repdb_txn.Serializability.pp_verdict v ]
    | _ -> []
  in
  let diverged =
    match r.divergent with
    | Some ({ item; site; primary_value = p; replica_value = v } :: _ as ds) ->
        [
          Printf.sprintf
            "%d divergent copies, first item %d at site %d (version %d by %d, primary version \
             %d by %d)"
            (List.length ds) item site v.version v.writer p.version p.writer;
        ]
    | _ -> []
  in
  let stuck =
    if r.retries_exhausted > 0 then
      [ Printf.sprintf "%d transactions exhausted their retries" r.retries_exhausted ]
    else []
  in
  match not_1sr @ diverged @ stuck with [] -> None | ws -> Some (String.concat "; " ws)

let violations id outcome =
  let check prefix (label, r) =
    Option.map (fun w -> Printf.sprintf "%s %s: %s" prefix label w) (witness r)
  in
  match outcome with
  | Figure fig ->
      List.concat_map
        (fun pt -> List.filter_map (check (Printf.sprintf "%s x=%g" id pt.x)) pt.reports)
        fig.points
  | Reports rs -> List.filter_map (check id) rs

let pp_point ppf (pt : point) =
  List.iter
    (fun (name, (r : Driver.report)) ->
      Fmt.pf ppf "  x=%-6g %-9s thr/site=%7.2f  abort=%6.2f%%  resp=%7.1fms  prop=%7.1fms  msgs=%d@,"
        pt.x name r.summary.throughput_per_site r.summary.abort_rate r.summary.avg_response
        r.summary.avg_propagation r.summary.messages)
    pt.reports

let pp_figure ppf fig =
  Fmt.pf ppf "@[<v>== %s: %s (x = %s)@,%a@]" fig.id fig.title fig.xlabel
    (fun ppf points -> List.iter (pp_point ppf) points)
    fig.points

let pp_reports ppf reports =
  List.iter
    (fun (name, r) -> Fmt.pf ppf "@[<v 2>-- %s --@,%a@]@." name Driver.pp_report r)
    reports

let render_ascii fig =
  let width = 64 and height = 18 in
  let protocols =
    match fig.points with [] -> [] | pt :: _ -> List.map fst pt.reports
  in
  let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
  let glyph_of i = glyphs.(i mod Array.length glyphs) in
  let xs = List.map (fun pt -> pt.x) fig.points in
  let ys =
    List.concat_map
      (fun pt -> List.map (fun (_, (r : Driver.report)) -> r.summary.throughput_per_site) pt.reports)
      fig.points
  in
  match (xs, ys) with
  | [], _ | _, [] -> "(no data)\n"
  | _ ->
      let x_min = List.fold_left min (List.hd xs) xs
      and x_max = List.fold_left max (List.hd xs) xs in
      let y_max = List.fold_left max 0.0 ys in
      let y_max = if y_max <= 0.0 then 1.0 else y_max *. 1.05 in
      let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
      let grid = Array.init height (fun _ -> Bytes.make width ' ') in
      List.iter
        (fun pt ->
          let col =
            int_of_float ((pt.x -. x_min) /. x_span *. float_of_int (width - 1))
          in
          List.iteri
            (fun i (_, (r : Driver.report)) ->
              let y = r.summary.throughput_per_site in
              let row =
                height - 1 - int_of_float (y /. y_max *. float_of_int (height - 1))
              in
              let row = max 0 (min (height - 1) row) in
              Bytes.set grid.(row) col (glyph_of i))
            pt.reports)
        fig.points;
      let buf = Buffer.create 2048 in
      Array.iteri
        (fun row line ->
          let label =
            if row = 0 then Printf.sprintf "%8.1f |" y_max
            else if row = height - 1 then Printf.sprintf "%8.1f |" 0.0
            else "         |"
          in
          Buffer.add_string buf label;
          Buffer.add_bytes buf line;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf ("         +" ^ String.make width '-' ^ "\n");
      Buffer.add_string buf
        (Printf.sprintf "          %-8g%s%8g\n" x_min
           (String.make (width - 16) ' ')
           x_max);
      Buffer.add_string buf (Printf.sprintf "          x = %s; y = throughput/site;" fig.xlabel);
      List.iteri
        (fun i name -> Buffer.add_string buf (Printf.sprintf " %c %s" (glyph_of i) name))
        protocols;
      Buffer.add_char buf '\n';
      Buffer.contents buf

let reason_count (r : Driver.report) reason =
  match List.assoc_opt reason r.summary.aborts_by_reason with Some n -> n | None -> 0

(* One [aborts_*] column per {!Repdb_txn.Txn.abort_reason} constructor, in
   [Txn.all_abort_reasons] order: adding a reason adds a column, nothing is
   lumped into an aggregate. *)
let abort_columns =
  List.map
    (fun r ->
      "aborts_"
      ^ String.map (fun ch -> if ch = '-' then '_' else ch) (Repdb_txn.Txn.string_of_abort r))
    Repdb_txn.Txn.all_abort_reasons

let to_csv fig =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    ("figure,x,protocol,throughput_per_site,abort_rate,avg_response,p99_response,avg_propagation,messages,reconfigs,state_transfers,reconfig_stall_ms,"
    ^ String.concat "," abort_columns
    ^ ",stale_reads,max_staleness_ms,unavail_ms,mttr_ms,failovers,repaired_items\n");
  List.iter
    (fun pt ->
      List.iter
        (fun (name, (r : Driver.report)) ->
          let mttr, failovers, repaired =
            match r.heal with
            | None -> (0.0, 0, 0)
            | Some h -> (h.Heal_exec.mttr_mean, h.failovers, h.repaired_items)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "%s,%g,%s,%.4f,%.4f,%.2f,%.2f,%.2f,%d,%d,%d,%.2f,%s,%d,%.2f,%.2f,%.2f,%d,%d\n"
               fig.id pt.x name r.summary.throughput_per_site r.summary.abort_rate
               r.summary.avg_response r.summary.p99_response r.summary.avg_propagation
               r.summary.messages r.reconfigs r.state_transfers r.reconfig_stall
               (String.concat ","
                  (List.map
                     (fun reason -> string_of_int (reason_count r reason))
                     Repdb_txn.Txn.all_abort_reasons))
               r.summary.stale_reads r.summary.max_staleness r.summary.unavail_ms mttr failovers
               repaired))
        pt.reports)
    fig.points;
  Buffer.contents buf

(* Per-run timelines collected by an outcome (present when the base params
   had [timeline_every > 0]), each under a filesystem-safe basename. *)
let timeline_files outcome =
  let clean s =
    String.map
      (fun ch ->
        match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch | _ -> '_')
      s
  in
  let of_reports prefix rs =
    List.filter_map
      (fun (label, (r : Driver.report)) ->
        Option.map (fun tl -> (clean (prefix ^ label), tl)) r.timeline)
      rs
  in
  match outcome with
  | Reports rs -> of_reports "" rs
  | Figure f ->
      List.concat_map
        (fun pt -> of_reports (Printf.sprintf "%s_x%g_" f.id pt.x) pt.reports)
        f.points
