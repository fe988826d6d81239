(* Tests for directed graphs, propagation trees and backedge computation. *)

module Digraph = Repdb_graph.Digraph
module Tree = Repdb_graph.Tree
module Backedge = Repdb_graph.Backedge

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let of_edges n edges =
  let g = Digraph.create n in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

(* Random DAG: edges only from lower to higher vertex under a fixed size. *)
let gen_dag =
  QCheck2.Gen.(
    bind (int_range 2 10) (fun n ->
        map
          (fun pairs ->
            let edges =
              List.filter_map
                (fun (a, b) ->
                  let u = a mod n and v = b mod n in
                  if u < v then Some (u, v) else if v < u then Some (v, u) else None)
                pairs
            in
            of_edges n edges)
          (list_size (int_range 0 25) (pair (int_range 0 100) (int_range 0 100)))))

(* Random digraph, cycles allowed. *)
let gen_digraph =
  QCheck2.Gen.(
    bind (int_range 2 9) (fun n ->
        map
          (fun pairs ->
            let edges = List.map (fun (a, b) -> (a mod n, b mod n)) pairs in
            of_edges n edges)
          (list_size (int_range 0 30) (pair (int_range 0 100) (int_range 0 100)))))

(* --- digraph ------------------------------------------------------------- *)

let test_digraph_basics () =
  let g = of_edges 4 [ (0, 1); (0, 1); (1, 2); (2, 2) ] in
  checki "dedup + no self-loop" 2 (Digraph.n_edges g);
  checkb "has" true (Digraph.has_edge g 0 1);
  checkb "no self" false (Digraph.has_edge g 2 2);
  Alcotest.(check (list int)) "succ" [ 1 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "pred" [ 1 ] (Digraph.pred g 2);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] (Digraph.edges g);
  Alcotest.check_raises "range" (Invalid_argument "Digraph: vertex out of range") (fun () ->
      Digraph.add_edge g 0 9)

let test_topo_sort () =
  let g = of_edges 4 [ (0, 1); (1, 2); (0, 3); (3, 2) ] in
  (match Digraph.topo_sort g with
  | None -> Alcotest.fail "expected a DAG"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.iter (fun (u, v) -> checkb "edge forward" true (pos.(u) < pos.(v))) (Digraph.edges g));
  let cyc = of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  checkb "cycle has no topo order" true (Digraph.topo_sort cyc = None);
  checkb "is_dag" false (Digraph.is_dag cyc)

let test_reachable () =
  let g = of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  let r = Digraph.reachable g 0 in
  Alcotest.(check (array bool)) "reach set" [| true; true; true; false; false |] r;
  checkb "cycle through" true (Digraph.has_cycle_through g 2 0);
  checkb "no cycle through" false (Digraph.has_cycle_through g 0 3)

let test_weak_components () =
  let g = of_edges 6 [ (0, 1); (2, 1); (3, 4) ] in
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] (Digraph.weak_components g)

let test_find_cycle () =
  let g = of_edges 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  match Digraph.find_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some cycle ->
      checkb "cycle non-trivial" true (List.length cycle >= 2);
      (* Every consecutive pair (wrapping) must be an edge. *)
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        checkb "cycle edge" true (Digraph.has_edge g arr.(i) arr.((i + 1) mod n))
      done

let test_remove_edges () =
  let g = of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  let h = Digraph.remove_edges g [ (2, 0) ] in
  checkb "now a DAG" true (Digraph.is_dag h);
  checkb "original untouched" true (Digraph.has_edge g 2 0)

(* --- tree ---------------------------------------------------------------- *)

let test_chain () =
  let t = Tree.chain_of_order [| 2; 0; 1 |] in
  checki "root" 2 (List.hd (Tree.roots t));
  checki "parent of 0" 2 (Tree.parent t 0);
  checki "parent of 1" 0 (Tree.parent t 1);
  checkb "ancestor" true (Tree.is_ancestor t 2 1);
  checki "depth" 2 (Tree.depth t 1);
  Alcotest.(check (list int)) "path down" [ 0; 1 ] (Tree.path_down t 2 1);
  Alcotest.(check (list int)) "subtree" [ 2; 0; 1 ] (Tree.subtree t 2)

let test_of_parents_validation () =
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.of_parents: cycle in parent array")
    (fun () -> ignore (Tree.of_parents [| 1; 0 |]));
  Alcotest.check_raises "bad parent" (Invalid_argument "Tree.of_parents: parent out of range")
    (fun () -> ignore (Tree.of_parents [| 5 |]))

let test_of_dag_example_1_1 () =
  (* Copy graph of the paper's Example 1.1: s1 -> s2, s1 -> s3, s2 -> s3. *)
  let g = of_edges 3 [ (0, 1); (0, 2); (1, 2) ] in
  let t = Tree.of_dag g in
  checkb "ancestor property" true (Tree.satisfies g t);
  (* The only valid shape is the chain 0 -> 1 -> 2. *)
  checki "s3 under s2" 1 (Tree.parent t 2);
  checki "s2 under s1" 0 (Tree.parent t 1)

let test_of_dag_components () =
  (* Two independent components become independent trees, not one chain. *)
  let g = of_edges 4 [ (0, 1); (2, 3) ] in
  let t = Tree.of_dag g in
  checkb "property" true (Tree.satisfies g t);
  Alcotest.(check (list int)) "two roots" [ 0; 2 ] (Tree.roots t)

let test_of_dag_rejects_cycles () =
  let g = of_edges 2 [ (0, 1); (1, 0) ] in
  Alcotest.check_raises "cyclic" (Invalid_argument "Tree.of_dag: graph has a cycle") (fun () ->
      ignore (Tree.of_dag g))

let prop_of_dag_satisfies =
  QCheck2.Test.make ~name:"Tree.of_dag has the ancestor property" ~count:200 gen_dag
    (fun g -> Tree.satisfies g (Tree.of_dag g))

let prop_chain_satisfies =
  QCheck2.Test.make ~name:"topological chain has the ancestor property" ~count:200 gen_dag
    (fun g ->
      match Digraph.topo_sort g with
      | None -> false
      | Some order -> Tree.satisfies g (Tree.chain_of_order (Array.of_list order)))

(* --- backedges ----------------------------------------------------------- *)

let test_of_order () =
  let g = of_edges 3 [ (0, 1); (2, 0); (1, 2) ] in
  Alcotest.(check (list (pair int int)))
    "backward edges" [ (2, 0) ]
    (Backedge.of_order g [| 0; 1; 2 |])

let test_minimal_set_example () =
  let g = of_edges 2 [ (0, 1); (1, 0) ] in
  let b = Backedge.minimal_set g in
  checki "one backedge" 1 (List.length b);
  checkb "valid" true (Backedge.is_backedge_set g b);
  checkb "minimal" true (Backedge.is_minimal g b)

let prop_minimal_set =
  QCheck2.Test.make ~name:"DFS backedge set is valid and minimal" ~count:300 gen_digraph
    (fun g -> Backedge.is_minimal g (Backedge.minimal_set g))

let prop_greedy_fas_valid =
  QCheck2.Test.make ~name:"greedy FAS is a valid backedge set" ~count:300 gen_digraph
    (fun g -> Backedge.is_backedge_set g (Backedge.greedy_fas g ~weight:(fun _ _ -> 1.0)))

let test_greedy_fas_quality () =
  (* A single directed cycle needs exactly one removed edge. *)
  let n = 7 in
  let g = of_edges n (List.init n (fun i -> (i, (i + 1) mod n))) in
  let fas = Backedge.greedy_fas g ~weight:(fun _ _ -> 1.0) in
  checki "cycle broken with one edge" 1 (List.length fas);
  checkb "valid" true (Backedge.is_backedge_set g fas)

let test_weighted_fas () =
  (* Two 2-cycles with asymmetric weights: the heuristic should prefer
     removing the cheap direction. *)
  let g = of_edges 4 [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  let weight u v = if u < v then 10.0 else 1.0 in
  let fas = Backedge.greedy_fas g ~weight in
  checkb "valid" true (Backedge.is_backedge_set g fas);
  checkb "cheap side removed" true (Backedge.total_weight fas ~weight <= 2.0)

(* Section 4.2: the backedge-set weight each construction pays, where an
   edge's weight is how often updates cross it. Both tables are recomputed
   here and their means are the figures EXPERIMENTS.md reports. *)
let test_fas_weights () =
  let module Params = Repdb_workload.Params in
  let module Placement = Repdb_workload.Placement in
  let module Rng = Repdb_sim.Rng in
  let seeds = List.init 10 (fun i -> i + 1) in
  let mean_at i rows = List.fold_left (fun acc row -> acc +. List.nth row i) 0.0 rows /. 10.0 in
  let checkf name want got = Alcotest.(check (float 1e-9)) name want got in
  (* Random placements at b = r = 0.5: the paper's rule (identity site
     order), the DFS minimal set and the greedy weighted feedback arc set.
     An edge u -> v weighs the items with their primary at u and a replica
     at v. *)
  let uniform seed =
    let params = { Params.default with backedge_prob = 0.5; replication_prob = 0.5 } in
    let pl = Placement.generate (Rng.create seed) params in
    let g = Placement.copy_graph pl in
    let m = params.n_sites in
    let counts = Array.make_matrix m m 0 in
    Array.iteri
      (fun item u -> Array.iter (fun v -> counts.(u).(v) <- counts.(u).(v) + 1) pl.replicas.(item))
      pl.primary;
    let weight u v = float_of_int counts.(u).(v) in
    List.map
      (fun set -> Backedge.total_weight set ~weight)
      [ Backedge.of_order g (Array.init m Fun.id); Backedge.minimal_set g; Backedge.greedy_fas g ~weight ]
  in
  let rows = List.map uniform seeds in
  (* Uniform placements give near-symmetric weights, so the sets tie. *)
  checkf "uniform: identity order" 101.3 (mean_at 0 rows);
  checkf "uniform: dfs minimal" 101.3 (mean_at 1 rows);
  checkf "uniform: greedy fas" 102.8 (mean_at 2 rows);
  (* Skewed random digraphs (12 vertices, ~30 edges, weights 1..100): where
     the weighted heuristic pays off. *)
  let skewed seed =
    let rng = Rng.create (seed * 131) in
    let g = Digraph.create 12 in
    let w = Hashtbl.create 64 in
    for _ = 1 to 30 do
      let u = Rng.int rng 12 and v = Rng.int rng 12 in
      if u <> v then begin
        Digraph.add_edge g u v;
        if not (Hashtbl.mem w (u, v)) then
          Hashtbl.replace w (u, v) (1.0 +. float_of_int (Rng.int rng 100))
      end
    done;
    let weight u v = try Hashtbl.find w (u, v) with Not_found -> 1.0 in
    List.map
      (fun set -> Backedge.total_weight set ~weight)
      [ Backedge.minimal_set g; Backedge.greedy_fas g ~weight ]
  in
  let rows = List.map skewed seeds in
  checkf "skewed: dfs minimal" 261.1 (mean_at 0 rows);
  checkf "skewed: greedy fas" 175.8 (mean_at 1 rows)

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "topo sort" `Quick test_topo_sort;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "weak components" `Quick test_weak_components;
          Alcotest.test_case "find cycle" `Quick test_find_cycle;
          Alcotest.test_case "remove edges" `Quick test_remove_edges;
        ] );
      ( "tree",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "of_parents validation" `Quick test_of_parents_validation;
          Alcotest.test_case "example 1.1" `Quick test_of_dag_example_1_1;
          Alcotest.test_case "components" `Quick test_of_dag_components;
          Alcotest.test_case "rejects cycles" `Quick test_of_dag_rejects_cycles;
          QCheck_alcotest.to_alcotest prop_of_dag_satisfies;
          QCheck_alcotest.to_alcotest prop_chain_satisfies;
        ] );
      ( "backedge",
        [
          Alcotest.test_case "of_order" `Quick test_of_order;
          Alcotest.test_case "minimal example" `Quick test_minimal_set_example;
          Alcotest.test_case "greedy quality" `Quick test_greedy_fas_quality;
          Alcotest.test_case "weighted" `Quick test_weighted_fas;
          Alcotest.test_case "fas weights (section 4.2)" `Quick test_fas_weights;
          QCheck_alcotest.to_alcotest prop_minimal_set;
          QCheck_alcotest.to_alcotest prop_greedy_fas_valid;
        ] );
    ]
