(* Tests for the per-site storage engine, the hash index, values, and the
   redo log / recovery layer. *)

module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Hash_index = Repdb_store.Hash_index
module Wal = Repdb_store.Wal

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_initial_state () =
  let s = Store.create ~site:2 [ 1; 5; 9 ] in
  checki "site" 2 (Store.site s);
  checki "size" 3 (Store.size s);
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

let test_set_ships_value () =
  let a = Store.create ~site:0 [ 3 ] and b = Store.create ~site:1 [ 3 ] in
  Store.apply a 3 ~writer:9 ();
  Store.set b 3 (Store.read a 3);
  checkb "copies equal" true (Value.equal (Store.read a 3) (Store.read b 3))

let test_not_placed_errors () =
  let s = Store.create ~site:1 [ 0 ] in
  let msg = "Store: item 5 is not placed at site 1" in
  Alcotest.check_raises "read" (Invalid_argument msg) (fun () -> ignore (Store.read s 5));
  Alcotest.check_raises "apply" (Invalid_argument msg) (fun () -> Store.apply s 5 ~writer:1 ());
  Alcotest.check_raises "set" (Invalid_argument msg) (fun () -> Store.set s 5 Value.initial)

let test_iter () =
  let s = Store.create ~site:0 [ 1; 2; 3 ] in
  Store.apply s 2 ~writer:1 ();
  let total = ref 0 and written = ref 0 in
  Store.iter
    (fun _ v ->
      incr total;
      if v.Value.version > 0 then incr written)
    s;
  checki "all copies" 3 !total;
  checki "one written" 1 !written

let test_value_semantics () =
  let v1 = Value.write ~writer:3 Value.initial in
  let v2 = Value.write ~writer:3 Value.initial in
  checkb "equal" true (Value.equal v1 v2);
  let v3 = Value.write ~writer:4 v1 in
  checkb "not equal" false (Value.equal v1 v3);
  Alcotest.(check string) "pp" "v1/T3" (Fmt.str "%a" Value.pp v1)

(* --- hash index ------------------------------------------------------------ *)

let test_index_basics () =
  let h = Hash_index.create ~capacity:2 () in
  checki "empty" 0 (Hash_index.length h);
  Hash_index.set h 5 "a";
  Hash_index.set h 21 "b";
  (* 21 and 5 may collide; both must survive. *)
  checkb "find 5" true (Hash_index.find h 5 = Some "a");
  checkb "find 21" true (Hash_index.find h 21 = Some "b");
  Hash_index.set h 5 "c";
  checkb "replace" true (Hash_index.find h 5 = Some "c");
  checki "length after replace" 2 (Hash_index.length h);
  checkb "remove" true (Hash_index.remove h 5);
  checkb "remove again" false (Hash_index.remove h 5);
  checkb "gone" false (Hash_index.mem h 5);
  checkb "other survives tombstone" true (Hash_index.find h 21 = Some "b");
  Alcotest.check_raises "negative key" (Invalid_argument "Hash_index: negative key") (fun () ->
      ignore (Hash_index.find h (-1)))

let test_index_growth () =
  let h = Hash_index.create ~capacity:2 () in
  for k = 0 to 999 do
    Hash_index.set h k (k * 7)
  done;
  checki "all live" 1000 (Hash_index.length h);
  for k = 0 to 999 do
    checkb "retrievable" true (Hash_index.find h k = Some (k * 7))
  done;
  let sum = Hash_index.fold (fun _ v acc -> acc + v) h 0 in
  checki "fold sums values" (7 * 999 * 1000 / 2) sum

let test_index_tombstone_churn () =
  (* Insert/delete churn must not wedge the table or leak capacity without
     bound. *)
  let h = Hash_index.create ~capacity:8 () in
  for round = 0 to 99 do
    for k = 0 to 7 do
      Hash_index.set h ((round * 8) + k) k
    done;
    for k = 0 to 7 do
      ignore (Hash_index.remove h ((round * 8) + k))
    done
  done;
  checki "empty after churn" 0 (Hash_index.length h);
  checkb "bounded capacity" true (Hash_index.capacity h <= 64)

(* Model check against Hashtbl on random op sequences. *)
let prop_index_matches_hashtbl =
  QCheck2.Test.make ~name:"hash index matches Hashtbl model" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 200) (triple (int_range 0 30) (int_range 0 2) (int_range 0 9)))
    (fun ops ->
      let h = Hash_index.create ~capacity:2 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (key, op, v) ->
          match op with
          | 0 ->
              (* Rebinding a live key updates its entry in place. *)
              Hash_index.set h key v;
              Hashtbl.replace model key v;
              true
          | 1 ->
              let a = Hash_index.remove h key and b = Hashtbl.mem model key in
              Hashtbl.remove model key;
              a = b
          | _ ->
              let expected = Hashtbl.find_opt model key in
              Hash_index.find h key = expected
              && (match Hash_index.get h key with v -> Some v | exception Not_found -> None)
                 = expected)
        ops
      && Hash_index.length h = Hashtbl.length model)

(* --- wal / recovery ---------------------------------------------------------- *)

let test_wal_replay () =
  let s = Store.create ~site:3 [ 0; 1; 2 ] in
  let wal = Wal.create () in
  Store.apply s 0 ~writer:1 () (* before attach: lives in the checkpoint *);
  Wal.attach wal s;
  Store.apply s 1 ~writer:2 ~payload:"x" ();
  Store.set s 2 (Store.read s 1);
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
          Alcotest.test_case "set ships value" `Quick test_set_ships_value;
          Alcotest.test_case "not placed" `Quick test_not_placed_errors;
          Alcotest.test_case "iter" `Quick test_iter;
          Alcotest.test_case "value semantics" `Quick test_value_semantics;
        ] );
      ( "hash index",
        [
          Alcotest.test_case "basics" `Quick test_index_basics;
          Alcotest.test_case "growth" `Quick test_index_growth;
          Alcotest.test_case "tombstone churn" `Quick test_index_tombstone_churn;
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
