(* Tests for parameters, data distribution and transaction generation. *)

module Rng = Repdb_sim.Rng
module Digraph = Repdb_graph.Digraph
module Txn = Repdb_txn.Txn
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Generator = Repdb_workload.Generator

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let d = Params.default

let test_validate () =
  Params.validate d;
  let bad name p = Alcotest.check_raises name (Invalid_argument "") (fun () -> Params.validate p) in
  let check_invalid name p =
    match Params.validate p with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  ignore bad;
  check_invalid "negative sites" { d with n_sites = 0 };
  check_invalid "bad prob" { d with replication_prob = 1.5 };
  check_invalid "bad read prob" { d with read_op_prob = -0.1 };
  check_invalid "bad timeout" { d with lock_timeout = 0.0 };
  check_invalid "bad cpu" { d with cpu_op = -1.0 };
  (* NaN fails every comparison, so each range check must be written to
     reject it; infinity is rejected as non-finite. *)
  check_invalid "nan prob" { d with replication_prob = Float.nan };
  check_invalid "nan zipf" { d with zipf_theta = Float.nan };
  check_invalid "nan latency" { d with latency = Float.nan };
  check_invalid "inf latency" { d with latency = Float.infinity };
  check_invalid "nan timeout" { d with lock_timeout = Float.nan };
  check_invalid "inf timeout" { d with lock_timeout = Float.infinity };
  check_invalid "nan stale reads" { d with stale_reads = Float.nan };
  check_invalid "inf cpu" { d with cpu_msg = Float.infinity };
  check_invalid "nan straggler" { d with straggler_factor = Float.nan };
  check_invalid "nan phi" { d with phi_threshold = Float.nan }

let test_table1 () =
  let rows = Params.table1 d in
  checki "12 parameter rows" 12 (List.length rows);
  let name, symbol, value, range = List.hd rows in
  Alcotest.(check string) "first row name" "Number of Sites" name;
  Alcotest.(check string) "symbol" "m" symbol;
  Alcotest.(check string) "default" "9" value;
  Alcotest.(check string) "range" "3 - 15" range

let test_primary_round_robin () =
  let p = { d with Params.n_sites = 4; n_items = 10 } in
  let pl = Placement.generate (Rng.create 1) p in
  for item = 0 to 9 do
    checki "round robin" (item mod 4) pl.Placement.primary.(item)
  done;
  checki "primaries at site 0" 3 (Array.length (Placement.primaries_at pl 0));
  checki "primaries at site 3" 2 (Array.length (Placement.primaries_at pl 3))

let test_no_replication () =
  let p = { d with Params.replication_prob = 0.0 } in
  let pl = Placement.generate (Rng.create 2) p in
  checki "no replicas" 0 (Placement.n_replicas pl);
  checki "no copy-graph edges" 0 (Digraph.n_edges (Placement.copy_graph pl));
  Alcotest.(check (list (pair int int))) "no backedges" [] (Placement.backedges pl)

let test_full_forward_replication () =
  (* r=1, s=1, b=0: every item is replicated at every following site. *)
  let p = { d with Params.n_sites = 4; n_items = 8; replication_prob = 1.0; site_prob = 1.0; backedge_prob = 0.0 } in
  let pl = Placement.generate (Rng.create 3) p in
  for item = 0 to 7 do
    let si = pl.Placement.primary.(item) in
    let expected = List.init (4 - si - 1) (fun k -> si + 1 + k) in
    Alcotest.(check (list int)) "following sites" expected (Array.to_list pl.Placement.replicas.(item))
  done;
  Alcotest.(check (list (pair int int))) "still no backedges" [] (Placement.backedges pl)

let test_backedges_appear () =
  let p = { d with Params.n_sites = 4; n_items = 8; replication_prob = 1.0; site_prob = 1.0; backedge_prob = 1.0 } in
  let pl = Placement.generate (Rng.create 4) p in
  (* With all sites candidates and s=1, every non-primary site replicates
     every item, so every backward pair is a backedge. *)
  checki "replicas everywhere" (8 * 3) (Placement.n_replicas pl);
  checki "backedges" 6 (List.length (Placement.backedges pl));
  checkb "copy graph cyclic" false (Digraph.is_dag (Placement.copy_graph pl))

let test_placement_queries () =
  let p = { d with Params.n_sites = 3; n_items = 6; replication_prob = 1.0; site_prob = 1.0; backedge_prob = 0.0 } in
  let pl = Placement.generate (Rng.create 5) p in
  checkb "primary is a copy" true (Placement.has_copy pl ~site:0 0);
  checkb "replica is a copy" true (Placement.has_copy pl ~site:2 0);
  checkb "is_primary" true (Placement.is_primary pl ~site:0 0);
  checkb "replica not primary" false (Placement.is_primary pl ~site:2 0);
  Alcotest.(check (list int)) "placed at last site" [ 0; 1; 2; 3; 4; 5 ]
    (Array.to_list (Placement.placed_at pl 2));
  (* Items whose primary is the last site have no following candidates at
     b = 0, so they stay unreplicated. *)
  checki "replicated items" 4 (Placement.n_replicated_items pl)

let test_copy_graph_edges () =
  let p = { d with Params.n_sites = 3; n_items = 3; replication_prob = 1.0; site_prob = 1.0; backedge_prob = 0.0 } in
  let pl = Placement.generate (Rng.create 6) p in
  let g = Placement.copy_graph pl in
  (* Item 0 at site 0 -> replicas at 1, 2; item 1 at 1 -> 2; item 2 at 2 -> none. *)
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2); (1, 2) ] (Digraph.edges g)

let make_gen ?(p = d) seed =
  let rng = Rng.create seed in
  let pl = Placement.generate rng p in
  (Generator.create rng p pl, pl)

let test_gen_structure () =
  let gen, _ = make_gen 7 in
  let rng = Rng.create 100 in
  for site = 0 to d.Params.n_sites - 1 do
    let spec = Generator.gen_with gen rng ~site in
    checki "origin" site spec.Txn.origin;
    checki "ops per txn" d.Params.ops_per_txn (List.length spec.Txn.ops)
  done

let test_gen_pools () =
  let gen, pl = make_gen 8 in
  let rng = Rng.create 101 in
  for _ = 1 to 50 do
    let site = Rng.int rng d.Params.n_sites in
    let spec = Generator.gen_with gen rng ~site in
    List.iter
      (function
        | Txn.Read item -> checkb "read placed here" true (Placement.has_copy pl ~site item)
        | Txn.Write item -> checkb "write is local primary" true (Placement.is_primary pl ~site item))
      spec.Txn.ops
  done

let test_gen_read_only () =
  let p = { d with Params.read_txn_prob = 1.0 } in
  let gen, _ = make_gen ~p 9 in
  let rng = Rng.create 102 in
  for _ = 1 to 20 do
    checkb "all reads" true (Txn.is_read_only (Generator.gen_with gen rng ~site:0))
  done

let test_gen_write_heavy () =
  let p = { d with Params.read_txn_prob = 0.0; read_op_prob = 0.0 } in
  let gen, _ = make_gen ~p 10 in
  let rng = Rng.create 103 in
  let spec = Generator.gen_with gen rng ~site:0 in
  checkb "all writes" true (List.for_all (function Txn.Write _ -> true | Txn.Read _ -> false) spec.Txn.ops)

let test_gen_distinct_sorted () =
  let gen, _ = make_gen 11 in
  let rng = Rng.create 104 in
  for _ = 1 to 50 do
    let spec = Generator.gen_with gen rng ~site:1 in
    let items = List.map (function Txn.Read i | Txn.Write i -> i) spec.Txn.ops in
    Alcotest.(check (list int)) "sorted distinct items" (List.sort_uniq compare items) items
  done

let test_gen_deterministic () =
  let gen, _ = make_gen 12 in
  let a = Generator.gen_with gen (Rng.create 7) ~site:2 in
  let gen2, _ = make_gen 12 in
  let b = Generator.gen_with gen2 (Rng.create 7) ~site:2 in
  checkb "same seed same txn" true (a = b)

let test_gen_hotspot () =
  (* With hot_access_prob = 1 every op lands in the first 20% of the pool. *)
  let p = { d with Params.hot_access_prob = 1.0; read_txn_prob = 1.0 } in
  let gen, pl = make_gen ~p 14 in
  let rng = Rng.create 106 in
  let pool = Placement.placed_at pl 0 in
  let hot = max 1 (int_of_float (ceil (0.2 *. float_of_int (Array.length pool)))) in
  for _ = 1 to 30 do
    let spec = Generator.gen_with gen rng ~site:0 in
    List.iter
      (function
        | Txn.Read item | Txn.Write item ->
            let pos = ref (-1) in
            Array.iteri (fun i x -> if x = item then pos := i) pool;
            checkb "item in hot prefix" true (!pos >= 0 && !pos < hot))
      spec.Txn.ops
  done

let test_hotspot_validation () =
  (match Params.validate { d with Params.hot_access_prob = 1.5 } with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ());
  match Params.validate { d with Params.straggler_factor = 0.5 } with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_gen_empty_site () =
  (* One item, three sites: sites 1 and 2 hold nothing when r = 0. *)
  let p = { d with Params.n_sites = 3; n_items = 1; replication_prob = 0.0 } in
  let gen, _ = make_gen ~p 13 in
  let rng = Rng.create 105 in
  let spec = Generator.gen_with gen rng ~site:1 in
  Alcotest.(check (list Alcotest.reject)) "empty txn" [] (List.map (fun _ -> ()) spec.Txn.ops)

(* --- compact representation vs. list-based reference ---------------------- *)

module Reconfig = Repdb_reconfig.Reconfig

(* A transparent list-based model of every placement query: the
   representation the compact sorted-array/bitset layout replaced. Small and
   obviously correct, so the QCheck tests below can pin the compact
   structures against it on random placements and reconfiguration
   sequences. *)
module Ref_model = struct
  type t = { m : int; n : int; primary : int array; replicas : int list array }

  let make ~n_sites ~n_items ~primary ~replicas =
    let replicas =
      Array.mapi
        (fun item l -> List.sort_uniq compare (List.filter (fun s -> s <> primary.(item)) l))
        replicas
    in
    { m = n_sites; n = n_items; primary; replicas }

  let has_copy t ~site item = t.primary.(item) = site || List.mem site t.replicas.(item)
  let has_replica t ~site item = List.mem site t.replicas.(item)
  let placed_at t site = List.filter (fun item -> has_copy t ~site item) (List.init t.n Fun.id)

  let primaries_at t site =
    List.filter (fun item -> t.primary.(item) = site) (List.init t.n Fun.id)

  let edges t =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun item u -> List.iter (fun v -> Hashtbl.replace tbl (u, v) ()) t.replicas.(item))
      t.primary;
    List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) tbl [])

  let backedges t = List.filter (fun (u, v) -> v < u) (edges t)

  let apply_step t (step : Reconfig.step) =
    let upd f = { t with replicas = Array.mapi f t.replicas } in
    match step with
    | Reconfig.Add_replica { item; site } ->
        if site = t.primary.(item) then t
        else upd (fun i l -> if i = item then List.sort_uniq compare (site :: l) else l)
    | Reconfig.Drop_replica { item; site } ->
        upd (fun i l -> if i = item then List.filter (fun s -> s <> site) l else l)
    | Reconfig.Rebalance_site { from_site; to_site } ->
        upd (fun item l ->
            if List.mem from_site l then
              let l = List.filter (fun s -> s <> from_site) l in
              if to_site = t.primary.(item) then l else List.sort_uniq compare (to_site :: l)
            else l)
end

(* Compact placement and reference agree on every query. *)
let agrees (rm : Ref_model.t) (pl : Placement.t) =
  let ok = ref true in
  let chk b = if not b then ok := false in
  for site = 0 to rm.m - 1 do
    chk (Ref_model.placed_at rm site = Array.to_list (Placement.placed_at pl site));
    chk (Ref_model.primaries_at rm site = Array.to_list (Placement.primaries_at pl site));
    for item = 0 to rm.n - 1 do
      chk (Ref_model.has_copy rm ~site item = Placement.has_copy pl ~site item);
      chk (Ref_model.has_replica rm ~site item = Placement.has_replica pl ~site item);
      let idx = Placement.placed_index pl ~site item in
      chk
        (if Ref_model.has_copy rm ~site item then (Placement.placed_at pl site).(idx) = item
         else idx = -1)
    done
  done;
  chk (Ref_model.edges rm = List.sort compare (Digraph.edges (Placement.copy_graph pl)));
  chk (Ref_model.backedges rm = List.sort compare (Placement.backedges pl));
  !ok

(* Raw placement input: primaries and replica site lists, both arbitrary
   (duplicates, the primary itself — [make] must normalize). *)
let gen_raw =
  QCheck.Gen.(
    2 -- 6 >>= fun m ->
    1 -- 25 >>= fun n ->
    array_repeat n (0 -- (m - 1)) >>= fun primary ->
    array_repeat n (list_size (0 -- (2 * m)) (0 -- (m - 1))) >>= fun replicas ->
    return (m, n, primary, replicas))

let arb_raw = QCheck.make ~print:(fun (m, n, _, _) -> Printf.sprintf "%d sites, %d items" m n) gen_raw

let test_compact_equivalence =
  QCheck.Test.make ~name:"compact placement matches list-based reference" ~count:300 arb_raw
    (fun (m, n, primary, replicas) ->
      let rm = Ref_model.make ~n_sites:m ~n_items:n ~primary ~replicas in
      let pl = Placement.make ~n_sites:m ~n_items:n ~primary ~replicas in
      agrees rm pl)

(* Random step sequences: the incremental [apply_step] must stay equivalent
   to the reference at every intermediate placement, not just the last. *)
let gen_steps =
  QCheck.Gen.(
    pair gen_raw
      (list_size (0 -- 12)
         (triple (0 -- 2) (pair small_nat small_nat) small_nat)))

let arb_steps =
  QCheck.make
    ~print:(fun ((m, n, _, _), steps) ->
      Printf.sprintf "%d sites, %d items, %d steps" m n (List.length steps))
    gen_steps

let test_compact_apply_step =
  QCheck.Test.make ~name:"incremental apply_step matches reference" ~count:300 arb_steps
    (fun ((m, n, primary, replicas), raw_steps) ->
      let to_step (kind, (a, b), c) =
        match kind with
        | 0 -> Reconfig.Add_replica { item = a mod n; site = b mod m }
        | 1 -> Reconfig.Drop_replica { item = a mod n; site = b mod m }
        | _ ->
            let from_site = a mod m in
            let to_site = (from_site + 1 + (c mod (max 1 (m - 1)))) mod m in
            Reconfig.Rebalance_site { from_site; to_site }
      in
      let rm = ref (Ref_model.make ~n_sites:m ~n_items:n ~primary ~replicas) in
      let pl = ref (Placement.make ~n_sites:m ~n_items:n ~primary ~replicas) in
      List.for_all
        (fun raw ->
          let step = to_step raw in
          rm := Ref_model.apply_step !rm step;
          pl := Placement.apply_step !pl step;
          agrees !rm !pl)
        raw_steps)

(* Even a pool tiny enough to defeat resampling must never yield a
   transaction touching the same item twice (a Read + Write pair upgrades
   and deadlocks; see the dedup pass in [Generator.gen_with]). *)
let test_gen_distinct_tiny_pool =
  QCheck.Test.make ~name:"generated txns have distinct items even with tiny pools" ~count:200
    QCheck.(pair (1 -- 3) small_nat)
    (fun (n_items, seed) ->
      let p =
        {
          d with
          Params.n_sites = 2;
          n_items;
          ops_per_txn = 8;
          replication_prob = 1.0;
          site_prob = 1.0;
          read_txn_prob = 0.3;
          read_op_prob = 0.5;
        }
      in
      let gen, _ = make_gen ~p (seed + 1) in
      let rng = Rng.create (seed + 1000) in
      List.for_all
        (fun site ->
          List.for_all
            (fun _ ->
              let spec = Generator.gen_with gen rng ~site in
              let items = List.map (function Txn.Read i | Txn.Write i -> i) spec.Txn.ops in
              List.sort_uniq compare items = items)
            (List.init 20 Fun.id))
        [ 0; 1 ])

(* --- generator vs. reference --------------------------------------------- *)

(* The transparent [gen_with] the allocation-lean generator replaced: a
   [Hashtbl] of chosen items, closures per transaction, [List.sort] and a
   list dedup pass. Kept verbatim in behaviour (same RNG draws in the same
   order, the same output) so the property below can pin the stamp-array,
   in-place-sort generator against it. *)
module Ref_gen = struct
  let zipf_table theta pool =
    let n = Array.length pool in
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for rank = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (rank + 1)) theta);
      cum.(rank) <- !acc
    done;
    cum

  let zipf_pick rng cum pool =
    let n = Array.length cum in
    let u = Rng.float rng *. cum.(n - 1) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    pool.(!lo)

  let gen_with (p : Params.t) ~readable ~writable rng ~site =
    if Array.length readable = 0 then { Txn.origin = site; ops = [] }
    else begin
      let read_only = Rng.bool rng p.read_txn_prob in
      let chosen = Hashtbl.create p.ops_per_txn in
      let pick_skewed pool =
        if p.zipf_theta > 0.0 then zipf_pick rng (zipf_table p.zipf_theta pool) pool
        else begin
          let n = Array.length pool in
          let hot = max 1 (int_of_float (ceil (0.2 *. float_of_int n))) in
          if p.hot_access_prob > 0.0 && Rng.bool rng p.hot_access_prob then pool.(Rng.int rng hot)
          else Rng.pick rng pool
        end
      in
      let pick_distinct pool =
        let rec go tries =
          let item = pick_skewed pool in
          if (not (Hashtbl.mem chosen item)) || tries >= 20 then begin
            Hashtbl.replace chosen item ();
            item
          end
          else go (tries + 1)
        in
        go 0
      in
      let gen_op () =
        let is_read = read_only || Array.length writable = 0 || Rng.bool rng p.read_op_prob in
        if is_read then Txn.Read (pick_distinct readable) else Txn.Write (pick_distinct writable)
      in
      let ops = List.init p.ops_per_txn (fun _ -> gen_op ()) in
      let item_of = function Txn.Read i | Txn.Write i -> i in
      let ops = List.sort (fun a b -> compare (item_of a) (item_of b)) ops in
      let rec dedup = function
        | a :: b :: rest when item_of a = item_of b ->
            let keep =
              match (a, b) with
              | (Txn.Write _ as w), _ | _, (Txn.Write _ as w) -> w
              | (Txn.Read _ as r), Txn.Read _ -> r
            in
            dedup (keep :: rest)
        | a :: rest -> a :: dedup rest
        | [] -> []
      in
      { Txn.origin = site; ops = dedup ops }
    end
end

(* Workload shapes that reach every branch of the generator: 1-40 ops (the
   in-place sort switches algorithm at 16), pools down to one item (the
   20-try resampling gives up), Zipf and hot-spot skew, read-only and
   write-only mixes, and more sites than items (sites with no primaries, or
   nothing placed at all). *)
let gen_workload =
  QCheck.Gen.(
    1 -- 40 >>= fun ops_per_txn ->
    2 -- 5 >>= fun n_sites ->
    1 -- 60 >>= fun n_items ->
    oneofl [ 0.0; 0.3; 1.0 ] >>= fun replication_prob ->
    oneofl [ 0.0; 0.5; 1.0 ] >>= fun read_txn_prob ->
    oneofl [ 0.0; 0.7; 1.0 ] >>= fun read_op_prob ->
    oneofl [ 0.0; 0.5; 0.9 ] >>= fun zipf_theta ->
    oneofl [ 0.0; 0.5; 1.0 ] >>= fun hot_access_prob ->
    small_nat >>= fun seed ->
    return
      ( {
          d with
          Params.ops_per_txn;
          n_sites;
          n_items;
          replication_prob;
          site_prob = 0.5;
          read_txn_prob;
          read_op_prob;
          zipf_theta;
          hot_access_prob;
        },
        seed ))

let arb_workload =
  QCheck.make
    ~print:(fun ((p : Params.t), seed) ->
      Printf.sprintf
        "ops=%d sites=%d items=%d r=%g read_txn=%g read_op=%g zipf=%g hot=%g seed=%d"
        p.ops_per_txn p.n_sites p.n_items p.replication_prob p.read_txn_prob p.read_op_prob
        p.zipf_theta p.hot_access_prob seed)
    gen_workload

(* Same spec stream, and the streams end in the same RNG state: the next
   draw after 30 transactions agrees too. *)
let test_gen_matches_reference =
  QCheck.Test.make ~name:"generator matches the reference gen_with" ~count:300 arb_workload
    (fun (p, seed) ->
      let gen, _ = make_gen ~p (seed + 1) in
      let rng = Rng.create (seed + 500) and ref_rng = Rng.create (seed + 500) in
      let same =
        List.for_all
          (fun k ->
            let site = k mod p.n_sites in
            let spec = Generator.gen_with gen rng ~site in
            let expected =
              Ref_gen.gen_with p ~readable:(Generator.readable gen site)
                ~writable:(Generator.writable gen site) ref_rng ~site
            in
            spec = expected)
          (List.init 30 Fun.id)
      in
      same && Rng.next_int64 rng = Rng.next_int64 ref_rng)

let () =
  Alcotest.run "workload"
    [
      ( "params",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "table1" `Quick test_table1;
        ] );
      ( "placement",
        [
          Alcotest.test_case "round robin primaries" `Quick test_primary_round_robin;
          Alcotest.test_case "no replication" `Quick test_no_replication;
          Alcotest.test_case "forward replication" `Quick test_full_forward_replication;
          Alcotest.test_case "backedges appear" `Quick test_backedges_appear;
          Alcotest.test_case "queries" `Quick test_placement_queries;
          Alcotest.test_case "copy graph" `Quick test_copy_graph_edges;
        ] );
      ( "generator",
        [
          Alcotest.test_case "structure" `Quick test_gen_structure;
          Alcotest.test_case "pools" `Quick test_gen_pools;
          Alcotest.test_case "read only" `Quick test_gen_read_only;
          Alcotest.test_case "write heavy" `Quick test_gen_write_heavy;
          Alcotest.test_case "distinct sorted" `Quick test_gen_distinct_sorted;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "hotspot" `Quick test_gen_hotspot;
          Alcotest.test_case "hotspot/straggler validation" `Quick test_hotspot_validation;
          Alcotest.test_case "empty site" `Quick test_gen_empty_site;
        ] );
      ( "compact",
        [
          QCheck_alcotest.to_alcotest test_compact_equivalence;
          QCheck_alcotest.to_alcotest test_compact_apply_step;
          QCheck_alcotest.to_alcotest test_gen_distinct_tiny_pool;
          QCheck_alcotest.to_alcotest test_gen_matches_reference;
        ] );
    ]
