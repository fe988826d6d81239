(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), the extra sweeps implied by Table 1's ranges, our
   ablations, and a set of Bechamel micro-benchmarks of the core operations.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig2a fig3b  # selected targets
     REPDB_BENCH_TXNS=100 dune exec bench/main.exe   # faster, coarser

   Experiments run at the paper's scale (1000 transactions per thread) by
   default; figures print both a human-readable table and CSV.

   [-j N] runs the independent simulations of each target on N domains
   (default: Domain.recommended_domain_count () - 1, at least 1). Output is
   bit-identical to [-j 1] — tasks land by input index and each owns its
   whole simulator state. [--chunk N] fixes the pool's claim size (default:
   the adaptive heuristic, tasks / (domains * 4)). *)

module Params = Repdb_workload.Params
module Experiment = Repdb.Experiment
module Pool = Repdb_par.Pool

let txns_per_thread =
  match Sys.getenv_opt "REPDB_BENCH_TXNS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1000)
  | None -> 1000

let base = { Params.default with txns_per_thread }

let jobs, chunk, requested =
  let bad arg =
    Fmt.epr "bad argument %s: expected -j N or --chunk N with N >= 1@." arg;
    exit 1
  in
  let rec parse jobs chunk acc = function
    | [] -> (jobs, chunk, List.rev acc)
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse j chunk acc rest
        | _ -> bad ("-j " ^ n))
    | [ "-j" ] -> bad "-j"
    | "--chunk" :: n :: rest -> (
        match int_of_string_opt n with
        | Some c when c >= 1 -> parse jobs (Some c) acc rest
        | _ -> bad ("--chunk " ^ n))
    | [ "--chunk" ] -> bad "--chunk"
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" -> (
        let n = String.sub arg 2 (String.length arg - 2) in
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse j chunk acc rest
        | _ -> bad arg)
    | arg :: rest -> parse jobs chunk (arg :: acc) rest
  in
  parse (Pool.default_domains ()) None [] (List.tl (Array.to_list Sys.argv))

let pool = if jobs > 1 then Some (Pool.create ?chunk ~domains:jobs ()) else None

(* Parallel map for this file's own seed loops; sequential without a pool. *)
let par_map arr ~f = match pool with Some p -> Pool.map p arr ~f | None -> Array.map f arr

let print_figure fig =
  Fmt.pr "%a@." Experiment.pp_figure fig;
  print_string (Experiment.render_ascii fig);
  Fmt.pr "@[<v>-- CSV --@,%s@]@." (Experiment.to_csv fig)

(* --- Table 1 ----------------------------------------------------------------- *)

let table1 () =
  Fmt.pr "== Table 1: Parameter Settings ==@.";
  Fmt.pr "%-32s %-8s %-24s %s@." "Parameter" "Symbol" "Default Value" "Range";
  List.iter
    (fun (name, symbol, value, range) -> Fmt.pr "%-32s %-8s %-24s %s@." name symbol value range)
    (Params.table1 base);
  Fmt.pr "@."

(* --- Section 4.2: minimising the effects of backedges ---------------------------- *)

(* The choice of backedge set matters: compare, over random placements, the
   paper's implemented rule (identity site order), the DFS minimal set, and
   the greedy weighted feedback-arc-set heuristic (weights = number of items
   whose updates cross the edge, i.e. propagation frequency). *)
let fas () =
  let module Digraph = Repdb_graph.Digraph in
  let module Backedge = Repdb_graph.Backedge in
  let module Placement = Repdb_workload.Placement in
  Fmt.pr "== Section 4.2: backedge-set weight by construction (weight = items per edge) ==@.";
  Fmt.pr "  %-6s %-14s %-14s %-14s@." "seed" "identity-order" "dfs-minimal" "greedy-fas";
  let seeds = Array.init 10 (fun i -> i + 1) in
  let rows =
    par_map seeds ~f:(fun seed ->
        let params = { base with Params.backedge_prob = 0.5; replication_prob = 0.5 } in
        let pl = Placement.generate (Repdb_sim.Rng.create seed) params in
        let g = Placement.copy_graph pl in
        let m = params.Params.n_sites in
        (* Edge weight: how many items have their primary at u and a replica
           at v — each committed update to one of them crosses the edge.
           Counted once per placement (one pass over the items) instead of
           rescanning all items on every weight query. *)
        let counts = Array.make_matrix m m 0 in
        Array.iteri
          (fun item u ->
            Array.iter (fun v -> counts.(u).(v) <- counts.(u).(v) + 1) pl.Placement.replicas.(item))
          pl.Placement.primary;
        let weight u v = float_of_int counts.(u).(v) in
        let sets =
          [
            Backedge.of_order g (Array.init m Fun.id);
            Backedge.minimal_set g;
            Backedge.greedy_fas g ~weight;
          ]
        in
        List.map (fun set -> Backedge.total_weight set ~weight) sets)
  in
  let totals = Array.make 3 0.0 in
  Array.iteri
    (fun i weights ->
      List.iteri (fun j w -> totals.(j) <- totals.(j) +. w) weights;
      match weights with
      | [ a; b; c ] -> Fmt.pr "  %-6d %-14.0f %-14.0f %-14.0f@." seeds.(i) a b c
      | _ -> assert false)
    rows;
  Fmt.pr "  %-6s %-14.1f %-14.1f %-14.1f@." "mean" (totals.(0) /. 10.0) (totals.(1) /. 10.0)
    (totals.(2) /. 10.0);
  Fmt.pr "  (uniform placements give near-symmetric weights, so the sets tie)@.@.";
  (* Skewed weights — where the weighted heuristic is supposed to help. *)
  Fmt.pr "  Skewed random digraphs (12 vertices, ~30 edges, weights 1..100):@.";
  Fmt.pr "  %-6s %-14s %-14s@." "seed" "dfs-minimal" "greedy-fas";
  let rows =
    par_map seeds ~f:(fun seed ->
        let rng = Repdb_sim.Rng.create (seed * 131) in
        let g = Digraph.create 12 in
        let w = Hashtbl.create 64 in
        for _ = 1 to 30 do
          let u = Repdb_sim.Rng.int rng 12 and v = Repdb_sim.Rng.int rng 12 in
          if u <> v then begin
            Digraph.add_edge g u v;
            if not (Hashtbl.mem w (u, v)) then
              Hashtbl.replace w (u, v) (1.0 +. float_of_int (Repdb_sim.Rng.int rng 100))
          end
        done;
        let weight u v = try Hashtbl.find w (u, v) with Not_found -> 1.0 in
        let dfs = Backedge.total_weight (Backedge.minimal_set g) ~weight in
        let greedy = Backedge.total_weight (Backedge.greedy_fas g ~weight) ~weight in
        (dfs, greedy))
  in
  let totals = Array.make 2 0.0 in
  Array.iteri
    (fun i (dfs, greedy) ->
      totals.(0) <- totals.(0) +. dfs;
      totals.(1) <- totals.(1) +. greedy;
      Fmt.pr "  %-6d %-14.0f %-14.0f@." seeds.(i) dfs greedy)
    rows;
  Fmt.pr "  %-6s %-14.1f %-14.1f@." "mean" (totals.(0) /. 10.0) (totals.(1) /. 10.0);
  Fmt.pr "@."

(* --- seed variance ---------------------------------------------------------------- *)

(* How much do the headline numbers move across seeds? (The paper reports
   single runs; this quantifies the noise band around our shapes.) *)
let variance () =
  Fmt.pr "== Seed variance at the defaults (5 seeds) ==@.";
  let protos : Repdb.Protocol.t array =
    [| (module Repdb.Backedge_proto : Repdb.Protocol.S); (module Repdb.Psl : Repdb.Protocol.S) |]
  in
  let seeds = [| 42; 43; 44; 45; 46 |] in
  let ns = Array.length seeds in
  (* One task per protocol x seed pair; results land by index, so the
     printed table is independent of -j. *)
  let tasks =
    Array.init
      (Array.length protos * ns)
      (fun i -> (protos.(i / ns), seeds.(i mod ns)))
  in
  let thr =
    par_map tasks ~f:(fun (proto, seed) ->
        (Repdb.Driver.run { base with Params.seed } proto).summary.throughput_per_site)
  in
  Array.iteri
    (fun pi proto ->
      let samples = Array.to_list (Array.sub thr (pi * ns) ns) in
      let n = float_of_int ns in
      let mean = List.fold_left ( +. ) 0.0 samples /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. n
      in
      Fmt.pr "  %-9s thr/site = %7.2f +- %5.2f  (min %7.2f, max %7.2f)@."
        (Repdb.Protocol.name proto) mean (sqrt var)
        (List.fold_left min infinity samples)
        (List.fold_left max neg_infinity samples))
    protos;
  Fmt.pr "@."

(* --- micro-benchmarks ----------------------------------------------------------- *)

(* The pre-PR heap, kept verbatim as a baseline so the micro target shows
   what the structure-of-arrays rewrite of [Repdb_sim.Heap] buys: this
   version boxes every entry in a record (one allocation per push) and does
   a three-word swap per level in both sift directions. *)
module Swap_heap = struct
  type 'a entry = { time : float; seq : int; value : 'a }
  type 'a t = { mutable data : 'a entry array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let is_empty h = h.len = 0
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h ~time ~seq value =
    let entry = { time; seq; value } in
    let cap = Array.length h.data in
    if h.len = cap then begin
      let ndata = Array.make (if cap = 0 then 16 else cap * 2) entry in
      Array.blit h.data 0 ndata 0 h.len;
      h.data <- ndata
    end;
    h.data.(h.len) <- entry;
    h.len <- h.len + 1;
    let rec up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if less h.data.(i) h.data.(parent) then begin
          let tmp = h.data.(i) in
          h.data.(i) <- h.data.(parent);
          h.data.(parent) <- tmp;
          up parent
        end
      end
    in
    up (h.len - 1)

  let pop_min h =
    let min = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let smallest = ref i in
        if l < h.len && less h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.len && less h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest <> i then begin
          let tmp = h.data.(i) in
          h.data.(i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          down !smallest
        end
      in
      down 0
    end;
    (min.time, min.seq, min.value)
end

let micro () =
  let open Bechamel in
  let module Timestamp = Repdb.Timestamp in
  let ts_a =
    Timestamp.of_tuples ~epoch:1
      [ { Timestamp.site = 0; lts = 3 }; { site = 2; lts = 5 }; { site = 4; lts = 1 } ]
  in
  let ts_b =
    Timestamp.of_tuples ~epoch:1 [ { Timestamp.site = 0; lts = 3 }; { site = 3; lts = 2 } ]
  in
  let rng = Repdb_sim.Rng.create 1 in
  let dag =
    let g = Repdb_graph.Digraph.create 16 in
    for _ = 1 to 40 do
      let u = Repdb_sim.Rng.int rng 16 and v = Repdb_sim.Rng.int rng 16 in
      if u < v then Repdb_graph.Digraph.add_edge g u v
    done;
    g
  in
  let heap_rng = Repdb_sim.Rng.create 2 in
  let swap_heap_rng = Repdb_sim.Rng.create 2 in
  (* Memoized placement accessors vs the full recompute a reconfiguration
     step pays: copy_graph/backedges are O(1) field reads since the memos
     moved into [Placement.make]. *)
  let placement =
    Repdb_workload.Placement.generate (Repdb_sim.Rng.create 3)
      { base with Params.backedge_prob = 0.5; replication_prob = 0.5 }
  in
  (* Per-task pool overhead: 256 no-op tasks on a 2-domain pool, so the
     measured cost is claim/synchronisation, not work. *)
  let micro_pool = Pool.create ~domains:2 () in
  let pool_tasks = Array.init 256 Fun.id in
  (* Propagation path: 256 updates from one source to one destination. The
     closure builds its own simulator so each run pays send + delivery for
     every message. *)
  let propagate =
    let module Sim = Repdb_sim.Sim in
    let module Network = Repdb_net.Network in
    Staged.stage (fun () ->
        let sim = Sim.create () in
        let delivered = ref 0 in
        let net = Network.create ~sim ~n_sites:2 ~latency:(fun _ _ -> 1.0) () in
        Network.set_handler net 1 (fun ~src:_ _ -> incr delivered);
        for i = 1 to 256 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Sim.run sim;
        assert (!delivered = 256))
  in
  (* The [Profile.on] guard: the same event churn with the self-profiler
     disabled (the default — schedulers skip the wrap after one check) and
     enabled (every closure wrapped, gettimeofday + minor-words sampled). *)
  let bench_sched profile =
    let module Sim = Repdb_sim.Sim in
    Staged.stage (fun () ->
        let sim = Sim.create ?profile () in
        let n = ref 0 in
        let rec tick () =
          incr n;
          if !n < 256 then Sim.after sim 1.0 tick
        in
        Sim.after sim 1.0 tick;
        Sim.run sim;
        assert (!n = 256))
  in
  let tests =
    [
      Test.make ~name:"Timestamp.compare" (Staged.stage (fun () -> Repdb.Timestamp.compare ts_a ts_b));
      Test.make ~name:"Rng.next_int64" (Staged.stage (fun () -> Repdb_sim.Rng.next_int64 rng));
      Test.make ~name:"Tree.of_dag (16 sites)" (Staged.stage (fun () -> Repdb_graph.Tree.of_dag dag));
      Test.make ~name:"Backedge.minimal_set" (Staged.stage (fun () -> Repdb_graph.Backedge.minimal_set dag));
      Test.make ~name:"Heap push/pop (SoA hole-sift)"
        (Staged.stage (fun () ->
             let h = Repdb_sim.Heap.create () in
             for seq = 0 to 63 do
               Repdb_sim.Heap.push h ~time:(Repdb_sim.Rng.float heap_rng) ~seq ()
             done;
             while not (Repdb_sim.Heap.is_empty h) do
               ignore (Repdb_sim.Heap.pop_min h)
             done));
      Test.make ~name:"Heap push/pop (record swap)"
        (Staged.stage (fun () ->
             let h = Swap_heap.create () in
             for seq = 0 to 63 do
               Swap_heap.push h ~time:(Repdb_sim.Rng.float swap_heap_rng) ~seq ()
             done;
             while not (Swap_heap.is_empty h) do
               ignore (Swap_heap.pop_min h)
             done));
      Test.make ~name:"Placement.copy_graph (memoized)"
        (Staged.stage (fun () ->
             ignore (Repdb_workload.Placement.copy_graph placement);
             ignore (Repdb_workload.Placement.backedges placement)));
      Test.make ~name:"Placement.apply_step (memo rebuild)"
        (Staged.stage (fun () ->
             ignore
               (Repdb_workload.Placement.apply_step placement
                  (Repdb_reconfig.Reconfig.Add_replica { item = 0; site = 1 }))));
      Test.make ~name:"Pool.map (256 tasks, 2 domains)"
        (Staged.stage (fun () -> ignore (Pool.map micro_pool pool_tasks ~f:succ)));
      Test.make ~name:"propagate 256" propagate;
      Test.make ~name:"256 events (profile off)" (bench_sched None);
      Test.make ~name:"256 events (profile on)"
        (bench_sched (Some (Repdb_obs.Profile.create ())));
    ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all ols instance raw
  in
  Fmt.pr "== Micro-benchmarks (Bechamel, monotonic clock) ==@.";
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Fmt.pr "  %-28s %10.1f ns/run@." name t
          | _ -> Fmt.pr "  %-28s (no estimate)@." name)
        results)
    tests;
  Pool.shutdown micro_pool;
  Fmt.pr "@."

(* Validation cost against read/write-set size: one [Validator.validate]
   call per run. Read and write sets are disjoint, so every run validates
   clean (the steady-state cost a winner pays) — the writes keep bumping
   their own items, the reads stay at their seeded versions. *)
let occ_validate () =
  let open Bechamel in
  let module Validator = Repdb_occ.Validator in
  let bench n =
    let v = Validator.create () in
    let reads = List.init n (fun i -> (i, 0)) in
    let writes = List.init n (fun i -> 4096 + i) in
    let gid = ref 0 in
    Staged.stage (fun () ->
        incr gid;
        match Validator.validate v { gid = !gid; reads; writes } with
        | Some _ -> ()
        | None -> assert false)
  in
  let tests =
    List.map
      (fun n -> Test.make ~name:(Printf.sprintf "Validator.validate (%d r + %d w)" n n) (bench n))
      [ 4; 16; 64 ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all ols instance raw
  in
  Fmt.pr "== OCC validation micro (Bechamel, monotonic clock) ==@.";
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Fmt.pr "  %-32s %10.1f ns/run@." name t
          | _ -> Fmt.pr "  %-32s (no estimate)@." name)
        results)
    tests;
  Fmt.pr "@."

(* --- dispatch ------------------------------------------------------------------- *)

(* Every [Experiment.registry] entry at the CLI's default resolution, plus
   the targets that are not sweeps. *)
let targets : (string * (unit -> unit)) list =
  let experiment (e : Experiment.entry) =
    ( e.exp_id,
      fun () ->
        match e.run ~pool ~base ~steps:10 with
        | Experiment.Figure fig -> print_figure fig
        | Experiment.Reports rs -> Fmt.pr "%a@." Experiment.pp_reports rs )
  in
  (("table1", table1) :: List.map experiment Experiment.registry)
  @ [ ("fas", fas); ("variance", variance); ("micro", micro); ("occ-validate", occ_validate) ]

let () =
  let requested = if requested = [] then List.map fst targets else requested in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some run ->
              Fmt.pr "#### %s (txns/thread = %d, -j %d) ####@." name txns_per_thread jobs;
              run ()
          | None ->
              Fmt.epr "unknown bench target %S; available: %s@." name
                (String.concat ", " (List.map fst targets));
              exit 1)
        requested)
