(* Tests for transaction vocabulary, the history recorder and the global
   serializability checker. *)

module Txn = Repdb_txn.Txn
module History = Repdb_txn.History
module Serializability = Repdb_txn.Serializability
module Digraph = Repdb_graph.Digraph

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_spec_helpers () =
  let spec = { Txn.origin = 1; ops = [ Txn.Read 3; Txn.Write 5; Txn.Read 3; Txn.Write 7 ] } in
  Alcotest.(check (list int)) "reads" [ 3; 3 ] (Txn.reads spec);
  Alcotest.(check (list int)) "writes" [ 5; 7 ] (Txn.writes spec);
  checkb "not read-only" false (Txn.is_read_only spec);
  checkb "read-only" true (Txn.is_read_only { spec with ops = [ Txn.Read 1 ] });
  Alcotest.(check string) "pp" "txn@1:r(3) w(5) r(3) w(7)" (Fmt.str "%a" Txn.pp_spec spec)

(* Op lists over a few items, so writes come unsorted, duplicated and mixed
   with reads of the same items; or, as a generator spec's, ascending write
   sets. *)
let gen_ops =
  QCheck2.Gen.(
    oneof
      [
        list_size (int_range 0 12)
          (map2 (fun w i -> if w then Txn.Write i else Txn.Read i) bool (int_range 0 6));
        map
          (fun l -> List.map (fun i -> Txn.Write i) (List.sort_uniq compare l))
          (list_size (int_range 0 8) (int_range 0 20));
      ])

let prop_writes_sorted_distinct =
  QCheck2.Test.make ~name:"writes = sort_uniq of the written items" ~count:1000
    ~print:(fun ops -> Fmt.str "%a" Txn.pp_spec { Txn.origin = 0; ops })
    gen_ops
    (fun ops ->
      Txn.writes { Txn.origin = 0; ops }
      = List.sort_uniq compare (List.filter_map (function Txn.Write i -> Some i | _ -> None) ops))

(* A random placement of 8 items over 3 sites, a site and a list of written
   items (unsorted, duplicates allowed): [local_replicas] is [List.filter] of
   [has_replica], and hands back the list itself when it keeps everything. *)
let prop_local_replicas_is_filter =
  let module Placement = Repdb_workload.Placement in
  QCheck2.Test.make ~name:"local_replicas = List.filter has_replica" ~count:1000
    QCheck2.Gen.(
      triple
        (array_size (pure 8) (pair (int_range 0 2) (list_size (int_range 0 3) (int_range 0 2))))
        (int_range 0 2)
        (list_size (int_range 0 8) (int_range 0 7)))
    (fun (rows, site, writes) ->
      let p =
        Placement.make ~n_sites:3 ~n_items:8 ~primary:(Array.map fst rows)
          ~replicas:(Array.map snd rows)
      in
      let local = Placement.local_replicas p site writes in
      let expected = List.filter (fun i -> Placement.has_replica p ~site i) writes in
      local = expected && (List.length expected < List.length writes || local == writes))

let record h ~site ~item ~gid kind = History.record h ~site ~item ~gid ~attempt:gid kind

let test_history_recording () =
  let h = History.create ~n_sites:2 () in
  checkb "enabled" true (History.enabled h);
  record h ~site:0 ~item:1 ~gid:10 History.W;
  record h ~site:0 ~item:1 ~gid:11 History.R;
  record h ~site:1 ~item:1 ~gid:10 History.W;
  checki "size" 3 (History.size h);
  Alcotest.(check (list (pair int int))) "touched" [ (0, 1); (1, 1) ] (History.touched h);
  let log = History.committed_log h ~site:0 ~item:1 in
  Alcotest.(check (list int)) "order kept" [ 10; 11 ] (List.map (fun a -> a.History.gid) log);
  Alcotest.(check (list int)) "gids" [ 10; 11 ] (History.committed_gids h)

let test_history_discard () =
  let h = History.create ~n_sites:1 () in
  History.record h ~site:0 ~item:0 ~gid:1 ~attempt:100 History.W;
  History.record h ~site:0 ~item:0 ~gid:2 ~attempt:200 History.W;
  History.discard_attempt h ~attempt:100;
  let log = History.committed_log h ~site:0 ~item:0 in
  Alcotest.(check (list int)) "aborted filtered" [ 2 ] (List.map (fun a -> a.History.gid) log);
  Alcotest.(check (list int)) "gids exclude aborted" [ 2 ] (History.committed_gids h)

let test_history_disabled () =
  let h = History.create ~enabled:false ~n_sites:1 () in
  record h ~site:0 ~item:0 ~gid:1 History.W;
  checki "no-op" 0 (History.size h);
  checkb "disabled" false (History.enabled h)

let serializable_check h =
  match Serializability.check h with
  | Serializability.Serializable -> true
  | Serializability.Not_serializable _ -> false

let test_serializable_history () =
  let h = History.create ~n_sites:2 () in
  (* T1 then T2 at both sites: consistent order. *)
  record h ~site:0 ~item:0 ~gid:1 History.W;
  record h ~site:0 ~item:0 ~gid:2 History.R;
  record h ~site:1 ~item:1 ~gid:1 History.W;
  record h ~site:1 ~item:1 ~gid:2 History.W;
  checkb "consistent orders serialize" true (serializable_check h)

let test_example_1_1_cycle () =
  (* The paper's Example 1.1: T1 before T2 at s2, but T2's update reaches s3
     before T1's. Items: a=0, b=1; sites s2=1, s3=2. *)
  let h = History.create ~n_sites:3 () in
  record h ~site:1 ~item:0 ~gid:1 History.W (* T1's update applied at s2 *);
  record h ~site:1 ~item:0 ~gid:2 History.R (* T2 reads a at s2 *);
  record h ~site:2 ~item:1 ~gid:2 History.W (* T2's update to b reaches s3 *);
  record h ~site:2 ~item:1 ~gid:3 History.R (* T3 reads b *);
  record h ~site:2 ~item:0 ~gid:3 History.R (* T3 reads a (old) *);
  record h ~site:2 ~item:0 ~gid:1 History.W (* T1's update finally arrives *);
  (match Serializability.check h with
  | Serializability.Not_serializable cycle ->
      checkb "cycle mentions multiple txns" true (List.length cycle >= 2);
      List.iter (fun gid -> checkb "gid in range" true (gid >= 1 && gid <= 3)) cycle
  | Serializability.Serializable -> Alcotest.fail "expected a serialization cycle");
  (* Discarding T2 (as if aborted) removes the cycle. *)
  History.discard_attempt h ~attempt:2;
  checkb "serializable after discard" true (serializable_check h)

let test_ww_cycle_across_sites () =
  let h = History.create ~n_sites:2 () in
  record h ~site:0 ~item:0 ~gid:1 History.W;
  record h ~site:0 ~item:0 ~gid:2 History.W;
  record h ~site:1 ~item:1 ~gid:2 History.W;
  record h ~site:1 ~item:1 ~gid:1 History.W;
  checkb "w-w inversion detected" false (serializable_check h)

let test_rw_cycle_single_site () =
  (* Not possible under strict 2PL at one site, but the checker must still
     flag an inverted log if given one. *)
  let h = History.create ~n_sites:1 () in
  record h ~site:0 ~item:0 ~gid:1 History.R;
  record h ~site:0 ~item:0 ~gid:2 History.W;
  record h ~site:0 ~item:1 ~gid:2 History.R;
  record h ~site:0 ~item:1 ~gid:1 History.W;
  checkb "r-w cycle" false (serializable_check h)

let test_reads_commute () =
  let h = History.create ~n_sites:2 () in
  record h ~site:0 ~item:0 ~gid:1 History.R;
  record h ~site:0 ~item:0 ~gid:2 History.R;
  record h ~site:1 ~item:0 ~gid:2 History.R;
  record h ~site:1 ~item:0 ~gid:1 History.R;
  checkb "read-read never conflicts" true (serializable_check h)

let test_conflict_graph_edges () =
  let h = History.create ~n_sites:1 () in
  record h ~site:0 ~item:0 ~gid:1 History.W;
  record h ~site:0 ~item:0 ~gid:2 History.R;
  record h ~site:0 ~item:0 ~gid:3 History.W;
  let g, gids = Serializability.conflict_graph h in
  Alcotest.(check (array int)) "vertices" [| 1; 2; 3 |] gids;
  checkb "w->r" true (Digraph.has_edge g 0 1);
  checkb "r->w" true (Digraph.has_edge g 1 2);
  checkb "w->w" true (Digraph.has_edge g 0 2);
  checkb "no reverse" false (Digraph.has_edge g 1 0)

let test_same_txn_no_self_edge () =
  let h = History.create ~n_sites:1 () in
  record h ~site:0 ~item:0 ~gid:1 History.W;
  record h ~site:0 ~item:0 ~gid:1 History.R;
  record h ~site:0 ~item:0 ~gid:1 History.W;
  let g, _ = Serializability.conflict_graph h in
  checki "no self edges" 0 (Digraph.n_edges g);
  checkb "serializable" true (serializable_check h)

(* Versioned logs with gaps: edges come from the versions read and
   installed, not from log positions. [versioned_edges] records the
   (gid, kind, version) accesses in one log and lists the conflict graph's
   edges as gid pairs. *)
let versioned_edges accesses =
  let h = History.create ~n_sites:1 () in
  List.iter
    (fun (gid, kind, version) -> History.record h ~site:0 ~item:0 ~gid ~attempt:gid ~version kind)
    accesses;
  let g, gids = Serializability.conflict_graph h in
  List.map (fun (u, v) -> (gids.(u), gids.(v))) (Digraph.edges g)

let test_versioned_read_of_installed_version () =
  Alcotest.(check (list (pair int int)))
    "ww 1->3, wr 1->2, rw 2->3" [ (1, 2); (1, 3); (2, 3) ]
    (versioned_edges [ (1, History.W, 1); (3, History.W, 2); (2, History.R, 1) ])

let test_versioned_read_of_missing_version () =
  (* v2 was never installed here: its reader precedes v3's writer, and no
     writer precedes the reader. *)
  Alcotest.(check (list (pair int int)))
    "ww 1->3, rw 2->3" [ (1, 3); (2, 3) ]
    (versioned_edges [ (1, History.W, 1); (3, History.W, 3); (2, History.R, 2) ])

let test_versioned_read_past_last () =
  Alcotest.(check (list (pair int int)))
    "no edges" [] (versioned_edges [ (1, History.W, 1); (2, History.R, 5) ])

let test_versioned_reinstalled_version () =
  Alcotest.(check (list (pair int int)))
    "the later writer of v1 counts" [ (2, 3) ]
    (versioned_edges [ (1, History.W, 1); (2, History.W, 1); (3, History.R, 1) ])

let test_versioned_read_of_initial () =
  (* Version 0 is the initial value, written by no transaction in the log. *)
  Alcotest.(check (list (pair int int)))
    "rw 1->2 only" [ (1, 2) ]
    (versioned_edges [ (2, History.W, 1); (1, History.R, 0) ]);
  Alcotest.(check (list (pair int int))) "lone reader" [] (versioned_edges [ (1, History.R, 0) ])

(* Brute-force cross-check: the checker's verdict must match an exhaustive
   search for a serial order consistent with *every* conflicting pair (the
   checker itself only materialises a reduced edge set; this property test
   guards that reduction). *)
let all_permutations l =
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: rest as full -> (x :: full) :: List.map (fun p -> y :: p) (insert x rest)
  in
  List.fold_left (fun perms x -> List.concat_map (insert x) perms) [ [] ] l

let brute_force_serializable h =
  let gids = History.committed_gids h in
  let pairs =
    List.concat_map
      (fun (site, item) ->
        let log = History.committed_log h ~site ~item in
        let rec conflicts acc = function
          | [] -> acc
          | (a : History.access) :: rest ->
              let acc =
                List.fold_left
                  (fun acc (b : History.access) ->
                    if a.gid <> b.gid && (a.kind = History.W || b.kind = History.W) then
                      (a.gid, b.gid) :: acc
                    else acc)
                  acc rest
              in
              conflicts acc rest
        in
        conflicts [] log)
      (History.touched h)
  in
  List.exists
    (fun perm ->
      let index = List.mapi (fun i g -> (g, i)) perm in
      List.for_all (fun (a, b) -> List.assoc a index < List.assoc b index) pairs)
    (all_permutations gids)

(* Gids are scaled so that the vertex numbering differs from the gids
   (x1000: sparse but still a flat index) and so that the range is too wide
   for a flat index (x2^40: the hash-table fallback). Each op runs in one of
   two attempts of its gid, and a random subset of attempts is discarded. *)
let gen_history ~n_ops ~versions =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 n_ops)
         (tup5 (int_range 0 2) (int_range 0 3) (int_range 1 4) bool
            (if versions then opt ~ratio:0.5 (int_range 0 3) else pure None)))
      (pair (oneofl [ 1; 1000; 1 lsl 40 ]) (list_size (int_range 0 3) (int_range 0 9))))

let build_history (ops, (scale, discarded)) =
  let h = History.create ~n_sites:3 () in
  List.iteri
    (fun i (site, item, gid, is_write, version) ->
      History.record h ~site ~item ~gid:(gid * scale) ~attempt:((2 * gid) + (i mod 2)) ?version
        (if is_write then History.W else History.R))
    ops;
  List.iter (fun attempt -> History.discard_attempt h ~attempt) discarded;
  h

let prop_checker_matches_brute_force =
  QCheck2.Test.make ~name:"checker matches brute force on tiny histories" ~count:400
    (gen_history ~n_ops:12 ~versions:false)
    (fun input ->
      let h = build_history input in
      serializable_check h = brute_force_serializable h)

(* The vertices are the committed gids in ascending order. The witness is
   the cycle the reference DFS finds on the conflict graph, and every step
   of it, wrapping around, is an edge of that graph. *)
let prop_witness_is_reference_cycle =
  QCheck2.Test.make ~name:"witness is Digraph.find_cycle's cycle" ~count:600
    (gen_history ~n_ops:20 ~versions:true)
    (fun input ->
      let h = build_history input in
      let g, gids = Serializability.conflict_graph h in
      Array.to_list gids = History.committed_gids h
      &&
      match (Serializability.check h, Digraph.find_cycle g) with
      | Serializability.Serializable, None -> true
      | Serializability.Not_serializable c, Some vs ->
          let vertex gid =
            let rec find v = if gids.(v) = gid then v else find (v + 1) in
            find 0
          in
          let vs' = List.map vertex c in
          let next = List.tl vs' @ [ List.hd vs' ] in
          c = List.map (fun v -> gids.(v)) vs && List.for_all2 (Digraph.has_edge g) vs' next
      | _ -> false)

let () =
  Alcotest.run "txn"
    [
      ( "txn",
        [
          Alcotest.test_case "spec helpers" `Quick test_spec_helpers;
          QCheck_alcotest.to_alcotest prop_writes_sorted_distinct;
          QCheck_alcotest.to_alcotest prop_local_replicas_is_filter;
        ] );
      ( "history",
        [
          Alcotest.test_case "recording" `Quick test_history_recording;
          Alcotest.test_case "discard" `Quick test_history_discard;
          Alcotest.test_case "disabled" `Quick test_history_disabled;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "serializable history" `Quick test_serializable_history;
          Alcotest.test_case "example 1.1 cycle" `Quick test_example_1_1_cycle;
          Alcotest.test_case "w-w cycle" `Quick test_ww_cycle_across_sites;
          Alcotest.test_case "r-w cycle" `Quick test_rw_cycle_single_site;
          Alcotest.test_case "reads commute" `Quick test_reads_commute;
          Alcotest.test_case "conflict graph edges" `Quick test_conflict_graph_edges;
          Alcotest.test_case "no self edges" `Quick test_same_txn_no_self_edge;
          Alcotest.test_case "versioned read of an installed version" `Quick
            test_versioned_read_of_installed_version;
          Alcotest.test_case "versioned read of a missing version" `Quick
            test_versioned_read_of_missing_version;
          Alcotest.test_case "versioned read past the last version" `Quick test_versioned_read_past_last;
          Alcotest.test_case "versioned read of the initial version" `Quick test_versioned_read_of_initial;
          Alcotest.test_case "version installed twice" `Quick test_versioned_reinstalled_version;
          QCheck_alcotest.to_alcotest prop_checker_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_witness_is_reference_cycle;
        ] );
    ]
