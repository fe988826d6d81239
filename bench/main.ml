(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), the extra sweeps implied by Table 1's ranges and
   our ablations.

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
  @ [ ("fas", fas); ("variance", variance) ]

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
