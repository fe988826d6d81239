module Params = Repdb_workload.Params
module Pool = Repdb_par.Pool

type point = { x : float; reports : (string * Driver.report) list }
type figure = { id : string; title : string; xlabel : string; points : point list }

let be_psl : Protocol.t list = [ (module Backedge_proto : Protocol.S); (module Psl : Protocol.S) ]

(* Every fan-out below goes through [run_tasks]: an array of independent
   thunks (each one a self-contained [Driver.run] — own [Sim.t], [Rng],
   cluster, trace) evaluated either sequentially or on the pool. [Pool.map]
   lands results by input index, so the two paths produce identical arrays;
   see the determinism test in [test/test_par.ml]. *)
let run_tasks ?pool tasks =
  match pool with
  | None -> Array.map (fun task -> task ()) tasks
  | Some pool -> Pool.map pool tasks ~f:(fun task -> task ())

(* Run [(label, params, protocol)] tasks and pair labels with reports. *)
let run_labelled ?pool jobs =
  let jobs = Array.of_list jobs in
  let reports =
    run_tasks ?pool (Array.map (fun (_, params, p) -> fun () -> Driver.run params p) jobs)
  in
  Array.to_list (Array.map2 (fun (label, _, _) r -> (label, r)) jobs reports)

let run_point ?pool params protocols x =
  let reports =
    run_labelled ?pool (List.map (fun p -> (Protocol.name p, params, p)) protocols)
  in
  { x; reports }

let sweep ?pool ~id ~title ~xlabel ~protocols ~values ~params_of () =
  (* One task per protocol x x-value pair, row-major by point so the grid
     reassembles in figure order whatever the parallel interleaving was. *)
  let protos = Array.of_list protocols in
  let xs = Array.of_list values in
  let np = Array.length protos in
  let tasks =
    Array.init
      (Array.length xs * np)
      (fun i ->
        let x = xs.(i / np) and p = protos.(i mod np) in
        fun () -> Driver.run (params_of x) p)
  in
  let reports = run_tasks ?pool tasks in
  let points =
    List.init (Array.length xs) (fun xi ->
        {
          x = xs.(xi);
          reports =
            List.init np (fun pi -> (Protocol.name protos.(pi), reports.((xi * np) + pi)));
        })
  in
  { id; title; xlabel; points }

let probs steps = List.init (steps + 1) (fun i -> float_of_int i /. float_of_int steps)

let fig2a ?pool ?(base = Params.default) ?(steps = 10) () =
  sweep ?pool ~id:"fig2a" ~title:"Throughput vs backedge probability (Figure 2a)"
    ~xlabel:"backedge probability b" ~protocols:be_psl ~values:(probs steps)
    ~params_of:(fun b -> { base with backedge_prob = b })
    ()

let fig2b ?pool ?(base = Params.default) ?(steps = 10) () =
  sweep ?pool ~id:"fig2b" ~title:"Throughput vs replication probability (Figure 2b)"
    ~xlabel:"replication probability r" ~protocols:be_psl ~values:(probs steps)
    ~params_of:(fun r -> { base with replication_prob = r })
    ()

let extreme base = { base with Params.replication_prob = 0.5; read_txn_prob = 0.0 }

let fig3a ?pool ?(base = Params.default) ?(steps = 10) () =
  let base = { (extreme base) with backedge_prob = 0.0 } in
  sweep ?pool ~id:"fig3a" ~title:"Throughput vs read-op probability, b=0 (Figure 3a)"
    ~xlabel:"read operation probability" ~protocols:be_psl ~values:(probs steps)
    ~params_of:(fun p -> { base with read_op_prob = p })
    ()

let fig3b ?pool ?(base = Params.default) ?(steps = 10) () =
  let base = { (extreme base) with backedge_prob = 1.0 } in
  sweep ?pool ~id:"fig3b" ~title:"Throughput vs read-op probability, b=1 (Figure 3b)"
    ~xlabel:"read operation probability" ~protocols:be_psl ~values:(probs steps)
    ~params_of:(fun p -> { base with read_op_prob = p })
    ()

let response_times ?pool ?(base = Params.default) () =
  run_labelled ?pool (List.map (fun p -> (Protocol.name p, base, p)) be_psl)

let sweep_sites ?pool ?(base = Params.default) () =
  sweep ?pool ~id:"sites" ~title:"Throughput vs number of sites" ~xlabel:"sites m" ~protocols:be_psl
    ~values:[ 3.0; 6.0; 9.0; 12.0; 15.0 ]
    ~params_of:(fun m -> { base with n_sites = int_of_float m })
    ()

let sweep_threads ?pool ?(base = Params.default) () =
  sweep ?pool ~id:"threads" ~title:"Throughput vs threads per site" ~xlabel:"threads/site"
    ~protocols:be_psl
    ~values:[ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    ~params_of:(fun k -> { base with threads_per_site = int_of_float k })
    ()

let sweep_latency ?pool ?(base = Params.default) () =
  sweep ?pool ~id:"latency" ~title:"Throughput vs network latency" ~xlabel:"latency (ms)"
    ~protocols:be_psl
    ~values:[ 0.15; 1.0; 5.0; 20.0; 50.0; 100.0 ]
    ~params_of:(fun l -> { base with latency = l })
    ()

let sweep_read_txn ?pool ?(base = Params.default) ?(steps = 5) () =
  sweep ?pool ~id:"readtxn" ~title:"Throughput vs read-transaction probability"
    ~xlabel:"read transaction probability" ~protocols:be_psl ~values:(probs steps)
    ~params_of:(fun p -> { base with read_txn_prob = p })
    ()

let ablation_protocols ?pool ?(base = Params.default) () =
  let params = { base with Params.backedge_prob = 0.0 } in
  run_labelled ?pool
    (List.map (fun p -> (Protocol.name p, params, p)) (Registry.all @ [ Registry.dag_t_pipelined ]))

let ablation_eager_scaling ?pool ?(base = Params.default) () =
  let protocols : Protocol.t list =
    [
      (module Eager : Protocol.S);
      (module Central : Protocol.S);
      (module Lazy_master : Protocol.S);
      (module Backedge_proto : Protocol.S);
      (module Psl : Protocol.S);
    ]
  in
  sweep ?pool ~id:"eager-scaling" ~title:"Eager / central-cert / lazy-master vs lazy as sites grow"
    ~xlabel:"sites m" ~protocols
    ~values:[ 3.0; 6.0; 9.0; 12.0; 15.0 ]
    ~params_of:(fun m -> { base with n_sites = int_of_float m })
    ()

let ablation_tree_routing ?pool ?(base = Params.default) ?(steps = 5) () =
  let protocols : Protocol.t list = [ (module Backedge_proto : Protocol.S); Registry.backedge_general ] in
  sweep ?pool ~id:"tree-routing" ~title:"BackEdge: chain tree vs general per-component tree"
    ~xlabel:"backedge probability b" ~protocols ~values:(probs steps)
    ~params_of:(fun b -> { base with backedge_prob = b })
    ()

let ablation_deadlock_policy ?pool ?(base = Params.default) () =
  run_labelled ?pool
    (List.concat_map
       (fun (label, policy) ->
         let params = { base with Params.deadlock_policy = policy } in
         List.map (fun p -> (Protocol.name p ^ "/" ^ label, params, p)) be_psl)
       [ ("timeout", `Timeout); ("detect", `Detect) ])

let ablation_dummy_period ?pool ?(base = Params.default) () =
  let base = { base with Params.backedge_prob = 0.0 } in
  sweep ?pool ~id:"dummy-period" ~title:"DAG(T): propagation delay vs dummy idle threshold"
    ~xlabel:"dummy idle threshold (ms)"
    ~protocols:[ (module Dag_t : Protocol.S) ]
    ~values:[ 10.0; 25.0; 50.0; 100.0; 200.0 ]
    ~params_of:(fun d -> { base with dummy_idle = d; epoch_period = 2.0 *. d })
    ()

let ablation_hotspot ?pool ?(base = Params.default) () =
  sweep ?pool ~id:"hotspot" ~title:"Hotspot skew: throughput vs hot-access probability"
    ~xlabel:"hot access probability (hot set = 20% of the pool)" ~protocols:be_psl
    ~values:[ 0.0; 0.3; 0.5; 0.7; 0.9 ]
    ~params_of:(fun h -> { base with hot_access_prob = h })
    ()

let ablation_straggler ?pool ?(base = Params.default) () =
  let protocols : Protocol.t list =
    [ (module Backedge_proto : Protocol.S); (module Psl : Protocol.S); (module Central : Protocol.S) ]
  in
  sweep ?pool ~id:"straggler" ~title:"Straggler machine: throughput vs CPU slowdown of machine 0"
    ~xlabel:"straggler slowdown factor" ~protocols
    ~values:[ 1.0; 2.0; 4.0; 8.0 ]
    ~params_of:(fun f -> { base with straggler_machine = 0; straggler_factor = f })
    ()

let sweep_faults ?pool ?(base = Params.default) () =
  (* b = 0 keeps the copy graph a DAG so DAG(WT) is applicable alongside the
     hybrid and PSL. The x axis is the number of injected crashes; each point
     draws its crash instants/downtimes from [Fault.synthetic] on the run
     seed, so the whole figure is deterministic in [base]. Convergence lag
     under faults shows up in the avg_propagation column. *)
  let base = { base with Params.backedge_prob = 0.0 } in
  let protocols : Protocol.t list =
    [ (module Backedge_proto : Protocol.S); (module Dag_wt : Protocol.S); (module Psl : Protocol.S) ]
  in
  sweep ?pool ~id:"faults" ~title:"Throughput and propagation lag vs injected crash count"
    ~xlabel:"site crashes injected" ~protocols
    ~values:[ 0.0; 1.0; 2.0; 4.0; 8.0 ]
    ~params_of:(fun k ->
      {
        base with
        faults =
          Repdb_fault.Fault.synthetic ~n_sites:base.n_sites ~seed:base.seed
            ~n_crashes:(int_of_float k) ();
      })
    ()

let sweep_reconfig ?pool ?(base = Params.default) () =
  (* b = 0 keeps the copy graph a DAG so DAG(WT) stays applicable alongside
     the hybrid and PSL (and so synthetic add/drop/rebalance steps cannot
     make it cyclic). The x axis is the number of reconfiguration steps
     executed mid-run; each point draws its plan from [Reconfig.synthetic]
     on the run seed, so the whole figure is deterministic in [base]. The
     mid-run throughput dip shows up in the reconfig_stall_ms column (and
     through it in throughput_per_site). *)
  let base = { base with Params.backedge_prob = 0.0 } in
  let protocols : Protocol.t list =
    [ (module Backedge_proto : Protocol.S); (module Dag_wt : Protocol.S); (module Psl : Protocol.S) ]
  in
  sweep ?pool ~id:"reconfig" ~title:"Throughput and switch cost vs online reconfigurations"
    ~xlabel:"reconfiguration steps executed" ~protocols
    ~values:[ 0.0; 1.0; 2.0; 4.0; 8.0 ]
    ~params_of:(fun k ->
      {
        base with
        reconfig =
          Repdb_reconfig.Reconfig.synthetic ~n_sites:base.n_sites ~n_items:base.n_items
            ~seed:base.seed ~n_steps:(int_of_float k) ();
      })
    ()

let sweep_partition ?pool ?(base = Params.default) () =
  (* Availability under a clean two-way network split: deadlines keep parked
     eager work bounded, backoff retry lets clients ride the partition out,
     and PSL's bounded-staleness fallback serves reads locally meanwhile. The
     x axis is the partition duration; 0 means no partition (the baseline).
     b = 0 keeps DAG(WT) applicable alongside the hybrid and PSL. Everything
     is derived from [base], so the whole figure is deterministic. *)
  let base =
    {
      base with
      Params.backedge_prob = 0.0;
      txn_deadline = 250.0;
      retry = Params.default_backoff;
      stale_reads = 60_000.0;
    }
  in
  let m = base.Params.n_sites in
  let near = List.init (m / 2) Fun.id in
  let far = List.init (m - (m / 2)) (fun i -> (m / 2) + i) in
  let protocols : Protocol.t list =
    [ (module Backedge_proto : Protocol.S); (module Dag_wt : Protocol.S); (module Psl : Protocol.S) ]
  in
  sweep ?pool ~id:"partition" ~title:"Availability under a network partition vs its duration"
    ~xlabel:"partition duration (ms)" ~protocols
    ~values:[ 0.0; 250.0; 500.0; 1000.0; 2000.0 ]
    ~params_of:(fun d ->
      if d <= 0.0 then base
      else
        {
          base with
          faults =
            {
              Repdb_fault.Fault.empty with
              partitions = [ { from_t = 100.0; until_t = 100.0 +. d; groups = [ near; far ] } ];
            };
        })
    ()

let sweep_heal ?pool ?(base = Params.default) () =
  (* Self-healing MTTR vs detector threshold. Every point runs the same
     crash-the-primary-plus-corruption schedule with healing on and no
     operator-scheduled recovery: site 1 (a primary for ~1/m of the items)
     crashes mid-run and silent corruption scrambles site 2's replica copies;
     the healer must detect, fail over, and repair on its own. The x axis is
     the φ suspicion threshold: low values detect fast but risk false
     failovers under latency jitter, high values sit through long outages —
     the availability trade-off the mttr_ms/unavail_ms columns quantify.
     b = 0 keeps DAG(WT) applicable; deadline + retry keep the weak drain
     bounded (PSL's synchronous remote reads need the deadline) and let
     clients ride the outage out. *)
  let base =
    {
      base with
      Params.backedge_prob = 0.0;
      heal = true;
      txn_deadline = 400.0;
      retry = Params.default_backoff;
      txns_per_thread = max base.txns_per_thread 200;
      faults =
        {
          Repdb_fault.Fault.empty with
          crashes = [ { site = 1; at = 400.0; down_for = 800.0 } ];
          corruptions = [ { c_site = 2; c_at = 600.0; c_prob = 0.3 } ];
        };
    }
  in
  let protocols : Protocol.t list =
    [ (module Backedge_proto : Protocol.S); (module Dag_wt : Protocol.S); (module Psl : Protocol.S) ]
  in
  sweep ?pool ~id:"heal" ~title:"Self-healing: MTTR and availability vs detector threshold"
    ~xlabel:"phi suspicion threshold" ~protocols
    ~values:[ 2.0; 4.0; 8.0; 16.0; 32.0 ]
    ~params_of:(fun phi -> { base with phi_threshold = phi })
    ()

let sweep_occ ?pool ?(base = Params.default) () =
  (* Optimistic vs locking under contention. The x axis is the Zipf skew of
     item selection: at theta = 0 access is uniform and optimistic execution
     wins on commit rate (no lock waits, the epoch batch amortizes the
     certification round trip); as theta grows the hottest items concentrate
    the read/write sets and the optimistic protocols pay with validation
     aborts instead of lock waits — the crossover the CSV abort-reason
     breakdown (aborts_validation_failed, aborts_first_committer_lost,
     aborts_dangerous_structure vs aborts_lock_timeout/aborts_deadlock)
     makes visible. b = 0 keeps DAG(WT) applicable as a lock-based
     reference. Everything derives from [base]: deterministic. *)
  let base = { base with Params.backedge_prob = 0.0 } in
  let protocols : Protocol.t list =
    [
      (module Occ_epoch : Protocol.S);
      (module Ssi : Protocol.S);
      (module Backedge_proto : Protocol.S);
      (module Dag_wt : Protocol.S);
      (module Psl : Protocol.S);
    ]
  in
  sweep ?pool ~id:"occ" ~title:"Optimistic vs locking: throughput and abort mix vs Zipf skew"
    ~xlabel:"zipf skew theta (item selection)" ~protocols
    ~values:[ 0.0; 0.5; 0.7; 0.9; 0.99 ]
    ~params_of:(fun theta -> { base with zipf_theta = theta })
    ()

let seed_variance ?pool ?(base = Params.default) () =
  (* The paper reports single runs; this is the noise band around our shapes:
     the defaults under five seeds, one point per seed. *)
  sweep ?pool ~id:"variance" ~title:"Seed variance at the defaults (5 seeds)" ~xlabel:"seed"
    ~protocols:be_psl
    ~values:[ 42.0; 43.0; 44.0; 45.0; 46.0 ]
    ~params_of:(fun s -> { base with seed = int_of_float s })
    ()

let large_scale ?pool ?(base = Params.default) () =
  (* Production-size partial replication: 200 sites x 100k items on the
     compact placement layer. s = 6/m keeps ~3 replicas per replicated item
     (the candidate pool averages m/2 following sites) while the placement
     stays genuinely partial. DAG(WT) needs an acyclic copy graph; BackEdge
     and PSL keep b = 0.2 so their eager paths fire. *)
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
  run_labelled ?pool
    [
      ("backedge", params 0.2, (module Backedge_proto : Protocol.S));
      ("dag-wt", params 0.0, (module Dag_wt : Protocol.S));
      ("psl", params 0.2, (module Psl : Protocol.S));
    ]

let ordered_backedge order =
  Protocol.variant ~name:"backedge"
    ~create:(fun c -> Backedge_proto.create_with_order c order)
    (module Backedge_proto)

let ablation_site_order ?pool ?(base = Params.default) () =
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
  let params = { base with Params.n_items } in
  (* FAS-derived order: peel the copy graph with the weighted greedy
     heuristic; here it simply puts the hub before its spokes. *)
  let g = Repdb_workload.Placement.copy_graph placement in
  let fas = Repdb_graph.Backedge.greedy_fas g ~weight:(fun _ _ -> 1.0) in
  let gdag = Repdb_graph.Digraph.remove_edges g fas in
  let order =
    match Repdb_graph.Digraph.topo_sort gdag with Some o -> Array.of_list o | None -> assert false
  in
  (* The two runs share [placement] read-only; each builds its own cluster. *)
  let jobs =
    [
      ("identity-order", ordered_backedge (Array.init m Fun.id));
      ("fas-order", ordered_backedge order);
    ]
  in
  let jobs_arr = Array.of_list jobs in
  let reports =
    run_tasks ?pool
      (Array.map (fun (_, proto) -> fun () -> Driver.run ~placement params proto) jobs_arr)
  in
  Array.to_list (Array.map2 (fun (label, _) r -> (label, r)) jobs_arr reports)

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

(* --- registry --------------------------------------------------------------
   The CLI's `experiment` subcommand derives both its help text and its
   dispatch from this list, so the two cannot drift (test_reconfig checks
   they agree with [ids]). Runners that have no [?steps] knob ignore it. *)

type outcome = Figure of figure | Reports of (string * Driver.report) list

type entry = {
  exp_id : string;
  doc : string;
  run : pool:Pool.t option -> base:Params.t -> steps:int -> outcome;
}

let registry =
  let fig f = fun ~pool ~base ~steps:_ -> Figure (f ?pool ?base:(Some base) ()) in
  let fig_steps f =
    fun ~pool ~base ~steps -> Figure (f ?pool ?base:(Some base) ?steps:(Some steps) ())
  in
  let reports f = fun ~pool ~base ~steps:_ -> Reports (f ?pool ?base:(Some base) ()) in
  [
    { exp_id = "fig2a"; doc = "throughput vs backedge probability (Figure 2a)"; run = fig_steps fig2a };
    { exp_id = "fig2b"; doc = "throughput vs replication probability (Figure 2b)"; run = fig_steps fig2b };
    { exp_id = "fig3a"; doc = "throughput vs read-op probability, b=0 (Figure 3a)"; run = fig_steps fig3a };
    { exp_id = "fig3b"; doc = "throughput vs read-op probability, b=1 (Figure 3b)"; run = fig_steps fig3b };
    { exp_id = "resp"; doc = "response times and propagation delay at the defaults"; run = reports response_times };
    { exp_id = "sites"; doc = "throughput vs number of sites"; run = fig sweep_sites };
    { exp_id = "threads"; doc = "throughput vs threads per site"; run = fig sweep_threads };
    { exp_id = "latency"; doc = "throughput vs network latency"; run = fig sweep_latency };
    { exp_id = "readtxn"; doc = "throughput vs read-transaction probability"; run = fig_steps sweep_read_txn };
    { exp_id = "ablation"; doc = "all protocols at the defaults (b=0)"; run = reports ablation_protocols };
    { exp_id = "eager-scaling"; doc = "eager/central/lazy-master vs lazy as sites grow"; run = fig ablation_eager_scaling };
    { exp_id = "tree-routing"; doc = "BackEdge chain tree vs general per-component tree"; run = fig_steps ablation_tree_routing };
    { exp_id = "deadlock-policy"; doc = "timeout vs waits-for-graph deadlock handling"; run = reports ablation_deadlock_policy };
    { exp_id = "dummy-period"; doc = "DAG(T) propagation delay vs dummy idle threshold"; run = fig ablation_dummy_period };
    { exp_id = "hotspot"; doc = "throughput vs hot-access probability"; run = fig ablation_hotspot };
    { exp_id = "straggler"; doc = "throughput vs CPU slowdown of machine 0"; run = fig ablation_straggler };
    { exp_id = "site-order"; doc = "BackEdge identity order vs FAS-derived order"; run = reports ablation_site_order };
    { exp_id = "faults"; doc = "throughput and propagation lag vs injected crashes"; run = fig sweep_faults };
    { exp_id = "reconfig"; doc = "throughput and switch cost vs online reconfigurations"; run = fig sweep_reconfig };
    { exp_id = "partition"; doc = "availability, deadline aborts and stale reads vs partition duration"; run = fig sweep_partition };
    { exp_id = "occ"; doc = "optimistic (occ-epoch, ssi) vs locking vs Zipf contention"; run = fig sweep_occ };
    { exp_id = "heal"; doc = "self-healing MTTR and availability vs detector threshold"; run = fig sweep_heal };
    { exp_id = "variance"; doc = "BackEdge and PSL throughput at the defaults under seeds 42-46"; run = fig seed_variance };
    { exp_id = "large"; doc = "BackEdge, DAG(WT) and PSL at 200 sites x 100k items"; run = reports large_scale };
  ]

let ids = List.map (fun e -> e.exp_id) registry
let find id = List.find_opt (fun e -> e.exp_id = id) registry

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
