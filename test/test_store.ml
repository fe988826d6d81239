(* Tests for the per-site storage engine, its hash index, values, and the
   redo log / recovery layer. *)

module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Int_index = Repdb_obs.Int_index
module Wal = Repdb_store.Wal

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_initial_state () =
  let s = Store.create ~site:2 [ 9; 1; 5 ] in
  checki "site" 2 (Store.site s);
  checkb "mem placed" true (Store.mem s 5);
  checkb "mem absent" false (Store.mem s 4);
  Alcotest.(check (list int)) "items sorted" [ 1; 5; 9 ] (Store.items s);
  let v = Store.read s 1 in
  checki "version 0" 0 v.Value.version;
  checki "no writer" (-1) v.Value.writer

let test_apply_versions () =
  let s = Store.create ~site:0 [ 7 ] in
  Store.apply s 7 ~writer:100 ();
  Store.apply s 7 ~writer:200 ();
  let v = Store.read s 7 in
  checki "version counts writes" 2 v.Value.version;
  checki "last writer" 200 v.Value.writer

let test_payload () =
  let s = Store.create ~site:0 [ 1 ] in
  Store.apply s 1 ~writer:5 ~payload:"hello" ();
  Alcotest.(check string) "payload stored" "hello" (Store.read s 1).Value.payload;
  Store.apply s 1 ~writer:6 ();
  Alcotest.(check string) "payload kept when unspecified" "hello" (Store.read s 1).Value.payload

let test_install_ships_value () =
  let a = Store.create ~site:0 [ 3 ] and b = Store.create ~site:1 [ 3 ] in
  Store.apply a 3 ~writer:9 ();
  Store.install b 3 (Store.read a 3);
  checkb "copies equal" true (Value.equal (Store.read a 3) (Store.read b 3));
  (* Installing an item not yet placed creates its copy. *)
  Store.install b 8 (Store.read a 3);
  Alcotest.(check (list int)) "new copy placed" [ 3; 8 ] (Store.items b)

let test_not_placed_errors () =
  let s = Store.create ~site:1 [ 0 ] in
  let msg = "Store: item 5 is not placed at site 1" in
  Alcotest.check_raises "read" (Invalid_argument msg) (fun () -> ignore (Store.read s 5));
  Alcotest.check_raises "apply" (Invalid_argument msg) (fun () -> Store.apply s 5 ~writer:1 ());
  Alcotest.check_raises "checksum" (Invalid_argument msg) (fun () -> ignore (Store.checksum s 5))

let test_contents () =
  let s = Store.create ~site:0 [ 3; 1; 2 ] in
  Store.apply s 2 ~writer:1 ();
  Alcotest.(check (list (pair int int)))
    "ascending, one written" [ (1, 0); (2, 1); (3, 0) ]
    (List.map (fun (item, v) -> (item, v.Value.version)) (Store.contents s))

let test_value_semantics () =
  let v1 = Value.write ~writer:3 Value.initial in
  let v2 = Value.write ~writer:3 Value.initial in
  checkb "equal" true (Value.equal v1 v2);
  let v3 = Value.write ~writer:4 v1 in
  checkb "not equal" false (Value.equal v1 v3);
  Alcotest.(check string) "pp" "v1/T3" (Fmt.str "%a" Value.pp v1)

(* Model check against a sorted association list. The store starts from its
   items in generated order; restores run before a redo log is attached
   (they are never logged), applies and installs after it. The recovered
   twin rebuilds its slots in ascending item order, so the two stores agree
   through their index, not their slot layout. *)
type op = Read of int | Apply of int * int | Install of int * int | Restore of int * int

let prop_store_matches_model =
  let gen_item = QCheck2.Gen.int_range 0 40 in
  let gen_op restores =
    QCheck2.Gen.(
      oneof
        ([
           map (fun i -> Read i) gen_item;
           map2 (fun i w -> Apply (i, w)) gen_item (int_range 0 99);
           map2 (fun i w -> Install (i, w)) gen_item (int_range 0 99);
         ]
        @ if restores then [ map2 (fun i w -> Restore (i, w)) gen_item (int_range 0 99) ] else []))
  in
  let print_ops ops =
    String.concat " "
      (List.map
         (function
           | Read i -> Printf.sprintf "read %d" i
           | Apply (i, w) -> Printf.sprintf "apply %d/%d" i w
           | Install (i, w) -> Printf.sprintf "install %d/%d" i w
           | Restore (i, w) -> Printf.sprintf "restore %d/%d" i w)
         ops)
  in
  QCheck2.Test.make ~name:"store matches a sorted association list" ~count:300
    ~print:QCheck2.Print.(triple (list int) print_ops print_ops)
    QCheck2.Gen.(
      triple
        (map (List.sort_uniq compare) (list_size (int_range 0 20) gen_item) >>= shuffle_l)
        (list_size (int_range 0 40) (gen_op true))
        (list_size (int_range 0 40) (gen_op false)))
    (fun (initial, before, after) ->
      let s = Store.create ~site:4 initial in
      let model = ref (List.map (fun item -> (item, Value.initial)) (List.sort compare initial)) in
      let bind item v = model := List.sort compare ((item, v) :: List.remove_assoc item !model) in
      let value w = Value.write ~writer:w ~payload:(string_of_int w) Value.initial in
      let step = function
        | Read item -> (
            match (Store.read s item, List.assoc_opt item !model) with
            | v, Some expected -> Value.equal v expected
            | _, None -> false
            | exception Invalid_argument _ -> not (List.mem_assoc item !model))
        | Apply (item, writer) -> (
            match Store.apply s item ~writer () with
            | () ->
                bind item (Value.write ~writer (List.assoc item !model));
                true
            | exception Invalid_argument _ -> not (List.mem_assoc item !model))
        | Install (item, w) ->
            Store.install s item (value w);
            bind item (value w);
            true
        | Restore (item, w) ->
            Store.restore s item (value w);
            bind item (value w);
            true
      in
      let ok_before = List.for_all step before in
      let wal = Wal.create () in
      Wal.attach wal s;
      let ok_after = List.for_all step after in
      let twin = Wal.recover wal ~site:4 in
      let all = List.init 41 Fun.id in
      let placed = List.map fst !model in
      ok_before && ok_after
      && Store.contents s = !model
      && Store.items s = placed
      && Store.contents twin = !model
      && Store.items twin = placed
      && Store.digest_over s all = Store.digest_over s placed
      && Store.digest_over s (List.rev placed) = Store.digest_over twin placed
      (* A digest over all placed items cannot tell a slot from an item id
         (the slots are a permutation), so compare proper subsets too. *)
      && List.for_all
           (fun k ->
             let chunk = List.filter (fun item -> item mod 3 = k) all in
             Store.digest_over s chunk = Store.digest_over twin chunk)
           [ 0; 1; 2 ])

(* --- hash index -------------------------------------------------------------
   [Int_index] is the store's index on item ids (and the lock manager's and
   span tracker's owner maps). Sized for 42 bindings it has 64 cells, so
   keys equal modulo 64 share a home cell and multiples of 64 build long
   probe runs. *)

let index64 () = Int_index.create 42

let test_index_basics () =
  let h = index64 () in
  checki "empty" 0 (Int_index.length h);
  Int_index.set h 5 1;
  Int_index.set h 69 2;
  (* 69 = 5 + 64: same home cell; both must survive. *)
  checki "find 5" 1 (Int_index.find h 5);
  checki "find 69" 2 (Int_index.find h 69);
  Int_index.set h 5 3;
  checki "replace" 3 (Int_index.find h 5);
  checki "length after replace" 2 (Int_index.length h);
  Int_index.remove h 5;
  checki "gone" (-1) (Int_index.find h 5);
  Int_index.remove h 5;
  checki "remove again" 1 (Int_index.length h);
  checki "collider shifted back" 2 (Int_index.find h 69);
  Int_index.set h (-7) 4;
  checki "negative key" 4 (Int_index.find h (-7))

let test_index_growth () =
  let h = index64 () in
  for k = 0 to 999 do
    Int_index.set h k (k * 7)
  done;
  checki "all bound" 1000 (Int_index.length h);
  for k = 0 to 999 do
    checki "retrievable" (k * 7) (Int_index.find h k)
  done;
  let sum = ref 0 and n = ref 0 in
  Int_index.iter
    (fun _ v ->
      sum := !sum + v;
      incr n)
    h;
  checki "iter visits each binding once" 1000 !n;
  checki "iter sums values" (7 * 999 * 1000 / 2) !sum

(* An index sized at creation takes that many bindings without growing:
   the inserts allocate nothing, so the bytes allocated between two reads
   are those of the reads themselves. *)
let test_index_sized () =
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. before
  in
  let reads = allocated ignore in
  List.iter
    (fun n ->
      let h = Int_index.create n in
      let bytes =
        allocated (fun () ->
            for k = 0 to n - 1 do
              Int_index.set h (k * 3) k
            done)
      in
      Alcotest.(check (float 0.0)) (Printf.sprintf "%d bindings" n) reads bytes;
      checki "all bound" n (Int_index.length h))
    [ 0; 1; 5; 42; 64; 1000; 1875 ]

let test_index_delete_churn () =
  (* Bind-and-remove churn on one probe run must leave the table empty and
     every key findable while bound. *)
  let h = index64 () in
  for round = 0 to 99 do
    for k = 0 to 7 do
      Int_index.set h (64 * ((round * 8) + k)) k
    done;
    for k = 0 to 7 do
      checki "bound" k (Int_index.find h (64 * ((round * 8) + k)));
      Int_index.remove h (64 * ((round * 8) + k))
    done
  done;
  checki "empty after churn" 0 (Int_index.length h);
  Int_index.iter (fun _ _ -> Alcotest.fail "binding left after churn") h

(* Model check against Hashtbl on random op sequences: small keys, negative
   keys and colliding multiples of 64, enough of them to grow the table. *)
let prop_index_matches_hashtbl =
  QCheck2.Test.make ~name:"hash index matches Hashtbl model" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (triple
           (oneof [ int_range (-5) 30; map (fun k -> 64 * k) (int_range 0 40) ])
           (int_range 0 2) (int_range 0 9)))
    (fun ops ->
      let h = index64 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (key, op, v) ->
          match op with
          | 0 ->
              Int_index.set h key v;
              Hashtbl.replace model key v;
              true
          | 1 ->
              Int_index.remove h key;
              Hashtbl.remove model key;
              true
          | _ -> Int_index.find h key = Option.value ~default:(-1) (Hashtbl.find_opt model key))
        ops
      && Int_index.length h = Hashtbl.length model
      &&
      let seen = ref [] in
      Int_index.iter (fun k v -> seen := (k, v) :: !seen) h;
      List.sort compare !seen
      = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

(* --- wal / recovery ---------------------------------------------------------- *)

let test_wal_replay () =
  let s = Store.create ~site:3 [ 0; 1; 2 ] in
  let wal = Wal.create () in
  Store.apply s 0 ~writer:1 () (* before attach: lives in the checkpoint *);
  Wal.attach wal s;
  Store.apply s 1 ~writer:2 ~payload:"x" ();
  Store.install s 2 (Store.read s 1);
  checki "two records" 2 (Wal.length wal);
  let recovered = Wal.recover wal ~site:3 in
  checkb "identical contents" true (Store.contents recovered = Store.contents s);
  checki "site preserved" 3 (Store.site recovered)

let test_wal_checkpoint_truncates () =
  let s = Store.create ~site:0 [ 0 ] in
  let wal = Wal.create () in
  Wal.attach wal s;
  Store.apply s 0 ~writer:1 ();
  Wal.checkpoint wal (Store.contents s);
  checki "log truncated" 0 (Wal.length wal);
  Store.apply s 0 ~writer:2 ();
  checki "new tail" 1 (Wal.length wal);
  let recovered = Wal.recover wal ~site:0 in
  checkb "checkpoint + tail = live" true (Store.contents recovered = Store.contents s)

let test_wal_reattach () =
  (* The restart drill: recover a store from the log, hook the log back on
     with [reattach] (no checkpoint), and keep writing. The log must keep the
     original checkpoint — so a second recovery still replays everything —
     and must capture writes made through the recovered store. *)
  let s = Store.create ~site:0 [ 0; 1 ] in
  let wal = Wal.create () in
  Wal.attach wal s;
  Store.apply s 0 ~writer:1 ();
  Store.apply s 1 ~writer:2 ~payload:"a" ();
  let recovered = Wal.recover wal ~site:0 in
  checkb "recover reproduces contents" true (Store.contents recovered = Store.contents s);
  let snap_before = Wal.snapshot wal in
  Wal.reattach wal recovered;
  checki "reattach keeps the log" 2 (Wal.length wal);
  checkb "reattach keeps the snapshot" true (Wal.snapshot wal = snap_before);
  Store.apply recovered 0 ~writer:3 ();
  checki "logging continues" 3 (Wal.length wal);
  let again = Wal.recover wal ~site:0 in
  checkb "second recovery sees post-restart writes" true
    (Store.contents again = Store.contents recovered);
  checkb "post-restart write present" true ((Store.read again 0).Value.writer = 3)

let prop_wal_recovery_roundtrip =
  QCheck2.Test.make ~name:"recovery reproduces the store after random writes" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) (pair (int_range 0 9) (int_range 1 50)))
    (fun writes ->
      let s = Store.create ~site:1 (List.init 10 Fun.id) in
      let wal = Wal.create () in
      Wal.attach wal s;
      List.iter (fun (item, writer) -> Store.apply s item ~writer ()) writes;
      Store.contents (Wal.recover wal ~site:1) = Store.contents s)

(* A whole protocol run is recoverable: attach a log to every site before the
   workload, crash afterwards, and rebuild every store from its log. *)
let test_wal_recovers_protocol_run () =
  let params =
    {
      Repdb_workload.Params.default with
      n_sites = 4;
      n_items = 20;
      replication_prob = 0.5;
      backedge_prob = 0.4;
      threads_per_site = 2;
      txns_per_thread = 20;
    }
  in
  let c = Repdb.Cluster.create params in
  let wals = Array.map (fun store ->
      let wal = Wal.create () in
      Wal.attach wal store;
      wal)
      c.stores
  in
  ignore (Repdb.Driver.run_on c (module Repdb.Backedge_proto));
  Array.iteri
    (fun site wal ->
      let recovered = Wal.recover wal ~site in
      checkb
        (Printf.sprintf "site %d recovered exactly" site)
        true
        (Store.contents recovered = Store.contents c.stores.(site)))
    wals

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "apply versions" `Quick test_apply_versions;
          Alcotest.test_case "payload" `Quick test_payload;
          Alcotest.test_case "install ships value" `Quick test_install_ships_value;
          Alcotest.test_case "not placed" `Quick test_not_placed_errors;
          Alcotest.test_case "contents" `Quick test_contents;
          Alcotest.test_case "value semantics" `Quick test_value_semantics;
          QCheck_alcotest.to_alcotest prop_store_matches_model;
        ] );
      ( "hash index",
        [
          Alcotest.test_case "basics" `Quick test_index_basics;
          Alcotest.test_case "growth" `Quick test_index_growth;
          Alcotest.test_case "sized at create" `Quick test_index_sized;
          Alcotest.test_case "delete churn" `Quick test_index_delete_churn;
          QCheck_alcotest.to_alcotest prop_index_matches_hashtbl;
        ] );
      ( "wal",
        [
          Alcotest.test_case "replay" `Quick test_wal_replay;
          Alcotest.test_case "checkpoint truncates" `Quick test_wal_checkpoint_truncates;
          Alcotest.test_case "reattach continues the log" `Quick test_wal_reattach;
          QCheck_alcotest.to_alcotest prop_wal_recovery_roundtrip;
          Alcotest.test_case "recovers a protocol run" `Quick test_wal_recovers_protocol_run;
        ] );
    ]
