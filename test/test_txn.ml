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
    (fun (gid, kind, version) ->
      History.record_versioned h ~site:0 ~item:0 ~gid ~attempt:gid ~version kind)
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

(* Every install counts: the installs of v1 are chained, and the reader
   of v1 follows the later one. *)
let test_versioned_reinstalled_version () =
  Alcotest.(check (list (pair int int)))
    "ww 1->2, wr 2->3" [ (1, 2); (2, 3) ]
    (versioned_edges [ (1, History.W, 1); (2, History.W, 1); (3, History.R, 1) ])

(* A lost update at one copy: T1 and T2 both read v0 and both install v1.
   Each reader of v0 precedes the first installer of v1 (T1), so T2 -> T1,
   and the installs are chained, T1 -> T2. *)
let test_versioned_lost_update () =
  let lost_update = [ (1, History.R, 0); (2, History.R, 0); (1, History.W, 1); (2, History.W, 1) ] in
  Alcotest.(check (list (pair int int))) "ww 1->2, rw 2->1" [ (1, 2); (2, 1) ] (versioned_edges lost_update);
  let h = History.create ~n_sites:1 () in
  List.iter
    (fun (gid, kind, version) ->
      History.record_versioned h ~site:0 ~item:0 ~gid ~attempt:gid ~version kind)
    lost_update;
  checkb "not serializable" false (serializable_check h)

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

let record_any h ~site ~item ~gid ~attempt version kind =
  match version with
  | None -> History.record h ~site ~item ~gid ~attempt kind
  | Some version -> History.record_versioned h ~site ~item ~gid ~attempt ~version kind

let build_history (ops, (scale, discarded)) =
  let h = History.create ~n_sites:3 () in
  List.iteri
    (fun i (site, item, gid, is_write, version) ->
      record_any h ~site ~item ~gid:(gid * scale) ~attempt:((2 * gid) + (i mod 2)) version
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

(* --- differential: the flat history against its boxed original -----------

   [Reference] is the history and checker as they were before the history
   became flat int arrays: per-(site, item) arrays of access records in a
   hash table, aborted attempts in another, and a checker that reads the
   records log by log and keeps only the later install of a version. *)

module Reference = struct
  [@@@warning "-32"]

  module History = struct
    type kind = R | W

    type access = { gid : int; attempt : int; kind : kind; version : int option }

    (* A growable array: the log's accesses are [accs.(0 .. len-1)]. *)
    type log = { mutable accs : access array; mutable len : int }

    (* Keys are log keys and attempt ids, which come from counters: the
       identity spreads them over the buckets and costs no hashing call. *)
    module Tbl = Hashtbl.Make (struct
      type t = int

      let equal = Int.equal
      let hash = Fun.id
    end)

    type t = {
      on : bool;
      n_sites : int;
      logs : log Tbl.t; (* item * n_sites + site -> log *)
      aborted : unit Tbl.t;
      mutable count : int;
    }

    let create ?(enabled = true) ~n_sites () =
      { on = enabled; n_sites; logs = Tbl.create 1024; aborted = Tbl.create 64; count = 0 }

    let enabled t = t.on

    let key t ~site ~item = (item * t.n_sites) + site

    let record t ~site ~item ~gid ~attempt ?version kind =
      if t.on then begin
        if site < 0 || site >= t.n_sites || item < 0 then invalid_arg "History.record: out of range";
        let a = { gid; attempt; kind; version } in
        let k = key t ~site ~item in
        (match Tbl.find_opt t.logs k with
        | None -> Tbl.add t.logs k { accs = Array.make 4 a; len = 1 }
        | Some log ->
            if log.len = Array.length log.accs then begin
              let accs = Array.make (2 * log.len) a in
              Array.blit log.accs 0 accs 0 log.len;
              log.accs <- accs
            end;
            log.accs.(log.len) <- a;
            log.len <- log.len + 1);
        t.count <- t.count + 1
      end

    let discard_attempt t ~attempt = if t.on then Tbl.replace t.aborted attempt ()

    (* [log]'s committed accesses, in execution order, as a fresh array. *)
    let committed t log =
      if Tbl.length t.aborted = 0 then Array.sub log.accs 0 log.len
      else
        let keep = Array.make log.len log.accs.(0) and n = ref 0 in
        for i = 0 to log.len - 1 do
          let a = log.accs.(i) in
          if not (Tbl.mem t.aborted a.attempt) then begin
            keep.(!n) <- a;
            incr n
          end
        done;
        if !n = log.len then keep else Array.sub keep 0 !n

    let committed_logs t =
      Tbl.fold
        (fun _ log acc ->
          let accs = committed t log in
          if Array.length accs = 0 then acc else accs :: acc)
        t.logs []

    let committed_log t ~site ~item =
      match Tbl.find_opt t.logs (key t ~site ~item) with
      | None -> []
      | Some log -> Array.to_list (committed t log)

    let touched t =
      Tbl.fold (fun k _ acc -> (k mod t.n_sites, k / t.n_sites) :: acc) t.logs [] |> List.sort compare

    let committed_gids t =
      let gids = Hashtbl.create 64 in
      List.iter (Array.iter (fun a -> Hashtbl.replace gids a.gid ())) (committed_logs t);
      Hashtbl.fold (fun gid () acc -> gid :: acc) gids [] |> List.sort compare

    let size t = t.count
  end

  module Serializability = struct
    module Digraph = Repdb_graph.Digraph

    type verdict = Serializable | Not_serializable of int list

    (* A growable int buffer: [a.(0 .. n-1)]. *)
    type buf = { mutable a : int array; mutable n : int }

    let buf cap = { a = Array.make (max cap 16) 0; n = 0 }

    let push b x =
      if b.n = Array.length b.a then begin
        let a = Array.make (2 * b.n) 0 in
        Array.blit b.a 0 a 0 b.n;
        b.a <- a
      end;
      b.a.(b.n) <- x;
      b.n <- b.n + 1

    (* Edges are appended to one buffer as (u, v) pairs; self-loops are dropped
       here, duplicates when the buffer becomes rows (see [csr]). *)
    let edge b u v =
      if u <> v then begin
        push b u;
        push b v
      end

    (* Vertices number the committed gids in ascending order. Gids come from a
       counter, so they usually span a range not much wider than the number of
       accesses: then [vertex] reads a flat array indexed by [gid - lo]. A wider
       range falls back to a hash table. *)
    let index (logs : History.access array list) =
      let lo = ref max_int and hi = ref min_int and total = ref 0 in
      List.iter
        (fun log ->
          total := !total + Array.length log;
          Array.iter
            (fun (a : History.access) ->
              if a.gid < !lo then lo := a.gid;
              if a.gid > !hi then hi := a.gid)
            log)
        logs;
      let lo = !lo and span = !hi - !lo + 1 in
      if !total = 0 then ([||], fun _ -> invalid_arg "Serializability: no vertex")
      else if span > 0 && span <= (4 * !total) + 4096 then begin
        let slot = Array.make span (-1) in
        List.iter (Array.iter (fun (a : History.access) -> slot.(a.gid - lo) <- 0)) logs;
        let n = ref 0 in
        for i = 0 to span - 1 do
          if slot.(i) = 0 then begin
            slot.(i) <- !n;
            incr n
          end
        done;
        let gids = Array.make !n 0 in
        Array.iteri (fun i v -> if v >= 0 then gids.(v) <- lo + i) slot;
        (gids, fun gid -> slot.(gid - lo))
      end
      else begin
        let tbl = Hashtbl.create !total in
        List.iter (Array.iter (fun (a : History.access) -> Hashtbl.replace tbl a.gid 0)) logs;
        let gids = Hashtbl.fold (fun gid _ acc -> gid :: acc) tbl [] |> List.sort compare |> Array.of_list in
        Array.iteri (fun v gid -> Hashtbl.replace tbl gid v) gids;
        (gids, Hashtbl.find tbl)
      end

    (* One pass per (site, item) log. We add an edge from every conflicting
       predecessor, but transitively redundant edges don't affect acyclicity, so
       it suffices to track the last committed writer and the readers seen since:
       a new write conflicts with that writer and those readers; a new read
       conflicts with that writer. *)
    let scan_positional edges readers vertex (log : History.access array) =
      let last_writer = ref (-1) in
      readers.n <- 0;
      Array.iter
        (fun (a : History.access) ->
          let v = vertex a.gid in
          if !last_writer >= 0 then edge edges !last_writer v;
          match a.kind with
          | History.R -> push readers v
          | History.W ->
              for i = 0 to readers.n - 1 do
                edge edges readers.a.(i) v
              done;
              last_writer := v;
              readers.n <- 0)
        log

    (* Version-tagged logs come from the multi-version protocols (occ-epoch,
       ssi): a snapshot read executes at some log position but observes an older
       version, so positional order is not the conflict order there. Edges are
       derived from the versions instead: ww between writers of consecutive
       installed versions, wr from the writer of [v] to each reader of [v], and
       rw from each reader of [v] to the writer of the next installed version,
       found by binary search. When a version is installed twice the later
       writer counts. *)
    let scan_versioned edges vertex (log : History.access array) =
      let writes =
        List.filter_map
          (fun (a : History.access) ->
            match (a.kind, a.version) with History.W, Some v -> Some (v, vertex a.gid) | _ -> None)
          (Array.to_list log)
        |> List.stable_sort (fun (v, _) (v', _) -> Int.compare v v')
      in
      let rec last_of_each = function
        | (v, _) :: ((v', _) :: _ as rest) when v = v' -> last_of_each rest
        | w :: rest -> w :: last_of_each rest
        | [] -> []
      in
      let writes = Array.of_list (last_of_each writes) in
      let k = Array.length writes in
      for i = 1 to k - 1 do
        edge edges (snd writes.(i - 1)) (snd writes.(i))
      done;
      (* The first index whose version is above [v], or [k]. *)
      let rec above v lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if fst writes.(mid) > v then above v lo mid else above v (mid + 1) hi
      in
      Array.iter
        (fun (a : History.access) ->
          match (a.kind, a.version) with
          | History.R, Some v ->
              let r = vertex a.gid and i = above v 0 k in
              if i > 0 && fst writes.(i - 1) = v then edge edges (snd writes.(i - 1)) r;
              if i < k then edge edges r (snd writes.(i))
          | _ -> ())
        log

    (* The edge pairs as compressed sparse rows over [n] vertices: the
       successors of [u] are [succ.(off.(u) .. off.(u + 1) - 1)], ascending and
       distinct. A counting sort by destination, then a stable one by source,
       puts each row in order without a comparison; duplicates are then
       adjacent and squeezed out in place. *)
    let csr n (e : buf) =
      let m = e.n / 2 and a = e.a in
      let out_start = Array.make (n + 1) 0 and in_start = Array.make (n + 1) 0 in
      for i = 0 to m - 1 do
        let u = a.(2 * i) and v = a.((2 * i) + 1) in
        out_start.(u + 1) <- out_start.(u + 1) + 1;
        in_start.(v + 1) <- in_start.(v + 1) + 1
      done;
      for u = 1 to n do
        out_start.(u) <- out_start.(u) + out_start.(u - 1);
        in_start.(u) <- in_start.(u) + in_start.(u - 1)
      done;
      let cursor = Array.sub in_start 0 n and by_dst = Array.make m 0 in
      for i = 0 to m - 1 do
        let v = a.((2 * i) + 1) in
        by_dst.(cursor.(v)) <- a.(2 * i);
        cursor.(v) <- cursor.(v) + 1
      done;
      Array.blit out_start 0 cursor 0 n;
      let succ = Array.make m 0 in
      for v = 0 to n - 1 do
        for j = in_start.(v) to in_start.(v + 1) - 1 do
          let u = by_dst.(j) in
          succ.(cursor.(u)) <- v;
          cursor.(u) <- cursor.(u) + 1
        done
      done;
      let off = Array.make (n + 1) 0 and w = ref 0 in
      for u = 0 to n - 1 do
        off.(u) <- !w;
        for j = out_start.(u) to out_start.(u + 1) - 1 do
          if !w = off.(u) || succ.(!w - 1) <> succ.(j) then begin
            succ.(!w) <- succ.(j);
            incr w
          end
        done
      done;
      off.(n) <- !w;
      (off, succ)

    (* The serialization graph as rows, with the gid of each vertex. *)
    let graph history =
      let logs = History.committed_logs history in
      let gids, vertex = index logs in
      let edges = buf (4 * History.size history) and readers = buf 16 in
      List.iter
        (fun log ->
          if Array.exists (fun (a : History.access) -> a.version <> None) log then
            scan_versioned edges vertex log
          else scan_positional edges readers vertex log)
        logs;
      (csr (Array.length gids) edges, gids)

    (* An iterative depth-first search that visits roots and successors in
       ascending order, so it meets the same first cycle as
       [Digraph.find_cycle] on the same graph and returns it the same way: from
       the vertex the search came back to, along the search path. *)
    let find_cycle (off, succ) =
      let n = Array.length off - 1 in
      let state = Array.make n 0 (* 0 unvisited, 1 on the path, 2 done *) in
      let path = Array.make n 0 and next = Array.make n 0 and depth = Array.make n 0 in
      let exception Cycle of int list in
      let enter top v =
        path.(top) <- v;
        next.(top) <- off.(v);
        depth.(v) <- top;
        state.(v) <- 1
      in
      try
        for root = 0 to n - 1 do
          if state.(root) = 0 then begin
            let top = ref 0 in
            enter 0 root;
            while !top >= 0 do
              let u = path.(!top) and j = next.(!top) in
              if j = off.(u + 1) then begin
                state.(u) <- 2;
                decr top
              end
              else begin
                next.(!top) <- j + 1;
                let v = succ.(j) in
                match state.(v) with
                | 0 ->
                    incr top;
                    enter !top v
                | 1 -> raise (Cycle (List.init (!top - depth.(v) + 1) (fun i -> path.(depth.(v) + i))))
                | _ -> ()
              end
            done
          end
        done;
        None
      with Cycle c -> Some c

    let conflict_graph history =
      let (off, succ), gids = graph history in
      let g = Digraph.create (Array.length gids) in
      for u = 0 to Array.length gids - 1 do
        for j = off.(u) to off.(u + 1) - 1 do
          Digraph.add_edge g u succ.(j)
        done
      done;
      (g, gids)

    let check history =
      let g, gids = graph history in
      match find_cycle g with
      | None -> Serializable
      | Some vertices -> Not_serializable (List.map (fun v -> gids.(v)) vertices)

    let pp_verdict ppf = function
      | Serializable -> Fmt.string ppf "serializable"
      | Not_serializable cycle ->
          Fmt.pf ppf "NOT serializable: cycle %a" Fmt.(list ~sep:(any " -> ") int) cycle
  end
end

(* One random stream of [record], [discard_attempt] and [check] calls over
   1-6 sites and 1-8 items drives both. Logs of the items in [vmask] are
   versioned (most of their accesses carry a version, a few do not), the
   others positional. Gids are 1-8 scaled by 1, 1000 or 2^40, attempts two
   per gid, scaled alike; discards name recorded attempts, never-recorded
   ones, negative ones and ones at 2^40 and above. The two checkers differ
   on purpose when a log installs one version from two gids, so a write
   that would do that reads the version instead. At every [check] and at
   the end, the verdict and witness, the conflict graph's edges and gids,
   [touched], [committed_gids], [size] and every touched key's
   [committed_log] must match: a [check] between records catches a
   grouping kept from an earlier call. *)
type op = Record of int * int * int * int * bool * int option | Discard of int | Check

let gen_stream =
  QCheck2.Gen.(
    let* n_sites = int_range 1 6
    and* n_items = int_range 1 8
    and* scale = oneofl [ 1; 1000; 1 lsl 40 ]
    and* vmask = int_bound 255 in
    let record =
      map
        (fun ((site, item, g), (second, write), (vflag, v)) ->
          let version = if vmask land (1 lsl item) <> 0 && vflag then Some v else None in
          Record (site, item, g * scale, ((2 * g) + Bool.to_int second) * scale, write, version))
        (triple
           (triple (int_bound (n_sites - 1)) (int_bound (n_items - 1)) (int_range 1 8))
           (pair bool bool)
           (pair (frequencyl [ (9, true); (1, false) ]) (int_bound 5)))
    and discard =
      map
        (fun a -> Discard a)
        (oneof
           [
             map (fun a -> a * scale) (int_range 2 17);
             int_range 100 103;
             int_range (-3) (-1);
             map (fun k -> (1 lsl 40) + k) (int_bound 3);
           ])
    in
    let+ ops = list_size (int_range 50 400) (frequency [ (16, record); (2, discard); (1, pure Check) ]) in
    (n_sites, ops))

let print_stream (n_sites, ops) =
  Fmt.str "sites=%d %a" n_sites
    Fmt.(
      list ~sep:sp (fun ppf -> function
        | Record (s, i, g, a, w, v) ->
            pf ppf "%s(s%d,i%d,g%d,a%d%a)" (if w then "w" else "r") s i g a
              (option (fun ppf -> pf ppf ",v%d")) v
        | Discard a -> pf ppf "discard(%d)" a
        | Check -> string ppf "check"))
    ops

let same_as_reference h r =
  let witness = function
    | Serializability.Serializable -> None
    | Serializability.Not_serializable c -> Some c
  and ref_witness = function
    | Reference.Serializability.Serializable -> None
    | Reference.Serializability.Not_serializable c -> Some c
  in
  let edges (g, gids) = (List.map (fun (u, v) -> (gids.(u), gids.(v))) (Digraph.edges g), gids) in
  let log (a : History.access) = (a.gid, a.attempt, a.kind = History.W, a.version)
  and ref_log (a : Reference.History.access) =
    (a.gid, a.attempt, a.kind = Reference.History.W, a.version)
  in
  witness (Serializability.check h) = ref_witness (Reference.Serializability.check r)
  && edges (Serializability.conflict_graph h) = edges (Reference.Serializability.conflict_graph r)
  && History.touched h = Reference.History.touched r
  && History.committed_gids h = Reference.History.committed_gids r
  && History.size h = Reference.History.size r
  && List.for_all
       (fun (site, item) ->
         List.map log (History.committed_log h ~site ~item)
         = List.map ref_log (Reference.History.committed_log r ~site ~item))
       (History.touched h)

let prop_flat_matches_reference =
  QCheck2.Test.make ~name:"flat history = boxed history" ~count:300 ~print:print_stream gen_stream
    (fun (n_sites, ops) ->
      let h = History.create ~n_sites () and r = Reference.History.create ~n_sites () in
      let installer = Hashtbl.create 16 in
      List.for_all
        (function
          | Record (site, item, gid, attempt, write, version) ->
              let write =
                match version with
                | Some v when write -> (
                    match Hashtbl.find_opt installer (site, item, v) with
                    | Some g when g <> gid -> false
                    | _ ->
                        Hashtbl.replace installer (site, item, v) gid;
                        true)
                | _ -> write
              in
              record_any h ~site ~item ~gid ~attempt version (if write then History.W else History.R);
              Reference.History.record r ~site ~item ~gid ~attempt ?version
                (if write then Reference.History.W else Reference.History.R);
              true
          | Discard attempt ->
              History.discard_attempt h ~attempt;
              Reference.History.discard_attempt r ~attempt;
              true
          | Check -> same_as_reference h r)
        ops
      && same_as_reference h r)


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
          Alcotest.test_case "lost update at one copy" `Quick test_versioned_lost_update;
          QCheck_alcotest.to_alcotest prop_checker_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_witness_is_reference_cycle;
          QCheck_alcotest.to_alcotest prop_flat_matches_reference;
        ] );
    ]
