(* Tests for the optimistic subsystem: the registry as single source of
   truth, Validator and Conflict_tracker units (write skew, first committer
   wins, stale reads), a QCheck property pinning the SSI dangerous-structure
   detector against brute-force multi-version serialization-graph acyclicity,
   differential QCheck properties pinning the certifier and the version
   chains to their list-based references, both protocols surviving combined
   faults + partition + reconfiguration with 1SR and convergence intact
   (byte-identically across repeats), ssi finishing serializable under
   deadlines short enough to expire before a remote certification is sent,
   and the occ sweep's determinism and expected optimistic-vs-locking
   crossover. *)

module Params = Repdb_workload.Params
module Txn = Repdb_txn.Txn
module Validator = Repdb_occ.Validator
module Tracker = Repdb_occ.Conflict_tracker
module Mvstore = Repdb_store.Mvstore
module Digraph = Repdb_graph.Digraph

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- registry: single source of truth ------------------------------------- *)

let test_registry () =
  (* [entries] drives `repdb protocols`, the `--protocol` lookup and the docs
     table; [all] must be exactly its protocol column, and the optimistic
     protocols must be registered, findable and cyclic-safe. *)
  checkb "all = map fst entries" true
    (List.map fst Repdb.Registry.entries == Repdb.Registry.all
    || List.length Repdb.Registry.entries = List.length Repdb.Registry.all
       && List.for_all2
            (fun (p, _) q -> Repdb.Protocol.name p = Repdb.Protocol.name q)
            Repdb.Registry.entries Repdb.Registry.all);
  List.iter
    (fun name ->
      checkb (name ^ " registered") true (List.mem name Repdb.Registry.names);
      (match Repdb.Registry.find name with
      | Some p -> checks (name ^ " find") name (Repdb.Protocol.name p)
      | None -> Alcotest.failf "%s not found" name);
      checkb
        (name ^ " cyclic-safe")
        true
        (List.exists (fun p -> Repdb.Protocol.name p = name) Repdb.Registry.cyclic_safe))
    [ "occ-epoch"; "ssi" ];
  List.iter
    (fun ((_ : Repdb.Protocol.t), doc) -> checkb "entry documented" true (String.length doc > 0))
    Repdb.Registry.entries;
  checki "describe covers entries"
    (List.length Repdb.Registry.entries)
    (List.length (Repdb.Registry.describe ()))

(* --- validator units ------------------------------------------------------- *)

let test_validator () =
  let v = Validator.create () in
  (* Clean pass bumps the write set's versions. *)
  (match Validator.validate v { gid = 1; reads = [ (0, 0); (1, 0) ]; writes = [ 1 ] } with
  | Some [ (1, 1) ] -> ()
  | Some w -> Alcotest.failf "unexpected writes %d" (List.length w)
  | None -> Alcotest.fail "clean txn rejected");
  checki "latest bumped" 1 (Validator.latest v 1);
  (* A read of the overwritten version is now stale. *)
  (match Validator.validate v { gid = 2; reads = [ (1, 0) ]; writes = [ 0 ] } with
  | None -> ()
  | Some _ -> Alcotest.fail "stale read validated");
  checki "rejection untouched the table" 0 (Validator.latest v 0);
  (* Re-reading the current version passes again. *)
  (match Validator.validate v { gid = 3; reads = [ (1, 1) ]; writes = [] } with
  | Some [] -> ()
  | _ -> Alcotest.fail "current read rejected");
  checki "validated" 2 (Validator.validated v);
  checki "rejected" 1 (Validator.rejected v)

(* --- conflict tracker units ------------------------------------------------ *)

let test_tracker_first_committer_wins () =
  let t = Tracker.create () in
  Tracker.begin_txn t ~gid:1 ~begin_ts:0.0;
  Tracker.begin_txn t ~gid:2 ~begin_ts:0.0;
  (match Tracker.certify t ~now:1.0 { gid = 1; begin_ts = 0.0; reads = []; writes = [ 7 ] } with
  | Tracker.Commit { writes = [ (7, 1) ]; _ } -> ()
  | _ -> Alcotest.fail "first writer should commit");
  (* Concurrent (began before gid 1 committed) overlapping write set. *)
  match Tracker.certify t ~now:2.0 { gid = 2; begin_ts = 0.0; reads = []; writes = [ 7 ] } with
  | Tracker.Abort Tracker.Ww_conflict -> ()
  | _ -> Alcotest.fail "second committer should lose"

let test_tracker_stale_read () =
  let t = Tracker.create () in
  Tracker.begin_txn t ~gid:1 ~begin_ts:0.0;
  (match Tracker.certify t ~now:1.0 { gid = 1; begin_ts = 0.0; reads = []; writes = [ 3 ] } with
  | Tracker.Commit _ -> ()
  | _ -> Alcotest.fail "writer should commit");
  (* Begins after the commit but read the old version: a lagging replica. *)
  Tracker.begin_txn t ~gid:2 ~begin_ts:2.0;
  match Tracker.certify t ~now:3.0 { gid = 2; begin_ts = 2.0; reads = [ (3, 0) ]; writes = [] } with
  | Tracker.Abort Tracker.Stale_read -> ()
  | _ -> Alcotest.fail "stale snapshot read should abort"

let test_tracker_write_skew () =
  (* The classic SI write skew: T1 reads {x,y} writes x, T2 reads {x,y}
     writes y, fully concurrent. Each is an rw-antidependency of the other —
     whichever certifies second is the pivot and must abort. *)
  let t = Tracker.create () in
  Tracker.begin_txn t ~gid:1 ~begin_ts:0.0;
  Tracker.begin_txn t ~gid:2 ~begin_ts:0.0;
  (match
     Tracker.certify t ~now:1.0
       { gid = 1; begin_ts = 0.0; reads = [ (0, 0); (1, 0) ]; writes = [ 0 ] }
   with
  | Tracker.Commit _ -> ()
  | _ -> Alcotest.fail "T1 should commit");
  (match
     Tracker.certify t ~now:2.0
       { gid = 2; begin_ts = 0.0; reads = [ (0, 0); (1, 0) ]; writes = [ 1 ] }
   with
  | Tracker.Abort Tracker.Dangerous -> ()
  | v ->
      Alcotest.failf "T2 should abort dangerous, got %s"
        (match v with
        | Tracker.Commit _ -> "commit"
        | Tracker.Abort Tracker.Stale_read -> "stale"
        | Tracker.Abort Tracker.Ww_conflict -> "ww"
        | Tracker.Abort Tracker.Dangerous -> "dangerous"));
  checki "dangerous abort counted" 1 (Tracker.dangerous_aborts t)

(* --- QCheck: certifier soundness vs brute-force MVSG acyclicity ------------

   Random small histories: transactions begin at staggered timestamps, read
   the true snapshot of an oracle (what a correct multi-version store would
   serve), and certify in commit order. Whatever subset the tracker commits
   must have an acyclic multi-version serialization graph (ww on consecutive
   installed versions, wr from writer to reader, rw from reader to the next
   version's writer) — i.e. the dangerous-structure rule may be
   conservative, but it never lets a cycle commit. *)

let mvsg_acyclic ~n_items committed =
  (* committed: (gid, reads=(item,version) list, writes=(item,version) list),
     gids 1-based; version 0 is the initial state (no writer vertex). *)
  let n = List.fold_left (fun a (g, _, _) -> max a g) 0 committed in
  let g = Digraph.create (n + 1) in
  for item = 0 to n_items - 1 do
    let writer_of = Hashtbl.create 8 and readers_of = Hashtbl.create 8 in
    List.iter
      (fun (gid, reads, writes) ->
        List.iter (fun (i, v) -> if i = item then Hashtbl.replace writer_of v gid) writes;
        List.iter
          (fun (i, v) ->
            if i = item then
              Hashtbl.replace readers_of v (gid :: Option.value ~default:[] (Hashtbl.find_opt readers_of v)))
          reads)
      committed;
    let versions = List.sort_uniq compare (Hashtbl.fold (fun v _ acc -> v :: acc) writer_of []) in
    (* ww edges between consecutive installed versions. *)
    let rec ww = function
      | a :: (b :: _ as rest) ->
          Digraph.add_edge g (Hashtbl.find writer_of a) (Hashtbl.find writer_of b);
          ww rest
      | _ -> ()
    in
    ww versions;
    (* wr and rw edges per read. *)
    Hashtbl.iter
      (fun v readers ->
        (match Hashtbl.find_opt writer_of v with
        | Some w -> List.iter (fun r -> if r <> w then Digraph.add_edge g w r) readers
        | None -> ());
        match List.find_opt (fun v' -> v' > v) versions with
        | Some v' ->
            let w' = Hashtbl.find writer_of v' in
            List.iter (fun r -> if r <> w' then Digraph.add_edge g r w') readers
        | None -> ())
      readers_of
  done;
  Digraph.find_cycle g = None

let history_gen =
  (* Per txn: (begin lag, read mask, write mask) over 3 items, 2..6 txns. *)
  QCheck.Gen.(
    list_size (int_range 2 6) (triple (int_range 0 3) (int_range 0 7) (int_range 0 7)))

let test_certifier_sound =
  QCheck.Test.make ~count:500 ~name:"certified subset has acyclic MVSG"
    (QCheck.make history_gen) (fun txns ->
      let n_items = 3 in
      let t = Tracker.create () in
      (* Oracle: per item, committed (version, commit_ts) newest last. *)
      let oracle = Array.make n_items [ (0, neg_infinity) ] in
      let snapshot_read item ts =
        let rec last acc = function
          | (v, cts) :: rest when cts <= ts -> last (Some v) rest
          | _ -> acc
        in
        match last None oracle.(item) with Some v -> v | None -> 0
      in
      let committed = ref [] in
      List.iteri
        (fun i (lag, rmask, wmask) ->
          let gid = i + 1 in
          let now = float_of_int (i + 1) in
          let begin_ts = Float.max 0.0 (now -. 0.5 -. float_of_int lag) in
          Tracker.begin_txn t ~gid ~begin_ts;
          let items mask = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2 ] in
          let reads = List.map (fun i -> (i, snapshot_read i begin_ts)) (items rmask) in
          let writes = items wmask in
          match Tracker.certify t ~now { gid; begin_ts; reads; writes } with
          | Tracker.Commit { commit_ts; writes } ->
              List.iter (fun (i, v) -> oracle.(i) <- oracle.(i) @ [ (v, commit_ts) ]) writes;
              committed := (gid, reads, writes) :: !committed
          | Tracker.Abort _ -> ())
        txns;
      mvsg_acyclic ~n_items !committed)

(* --- differential: the certifier against its list-scan original ----------

   [Reference] is the certifier as it was before it was indexed by item: one
   [recent] list of committed transactions filtered on every certification,
   and versions keyed by (item, version). Random streams of 100-400
   transactions over 3-8 items drive both. Transactions begin at a time
   drawn between the last certification and now (the registration contract)
   and certify later in random order, some are forgotten, and an aborted
   writer's versions are sometimes pinned with [seed], as the benchmark's
   replay does. Every verdict, assigned version and dangerous-abort count
   must match, across the GC runs every 64 commits. *)

module Reference = struct
  type txn = { gid : int; begin_ts : float; reads : (int * int) list; writes : int list }

  type abort_cause = Stale_read | Ww_conflict | Dangerous

  type verdict = Commit of { commit_ts : float; writes : (int * int) list } | Abort of abort_cause

  type committed = {
    c_gid : int;
    c_commit : float;
    c_reads : (int * int) list;
    c_writes : (int * int) list;
    mutable in_c : bool; (* has an incoming rw-antidependency from a committed txn *)
    mutable out_c : bool; (* has an outgoing rw-antidependency to a committed txn *)
  }

  type t = {
    latest : (int, int * float) Hashtbl.t; (* item -> newest version, commit_ts *)
    version_ts : (int * int, float) Hashtbl.t; (* (item, version) -> commit_ts *)
    active : (int, float) Hashtbl.t; (* gid -> begin_ts *)
    mutable recent : committed list; (* newest first *)
    mutable commits : int;
    mutable n_dangerous : int;
  }

  let create () =
    {
      latest = Hashtbl.create 1024;
      version_ts = Hashtbl.create 4096;
      active = Hashtbl.create 64;
      recent = [];
      commits = 0;
      n_dangerous = 0;
    }

  let begin_txn t ~gid ~begin_ts = Hashtbl.replace t.active gid begin_ts
  let forget t ~gid = Hashtbl.remove t.active gid

  let latest t item =
    Option.value ~default:(0, neg_infinity) (Hashtbl.find_opt t.latest item)

  let latest_version t item = fst (latest t item)

  (* Was [v_read] the latest version of [item] as of [begin_ts]? Either it
     still is the latest (and was committed by then), or its successor
     committed strictly after the snapshot was taken. A successor evicted from
     the window committed at or before the GC floor, which never exceeds any
     live begin timestamp, so eviction means "visible at begin" — stale. *)
  let snapshot_ok t ~begin_ts (item, v_read) =
    let v_lat, lat_ts = latest t item in
    if v_read > v_lat then false
    else if v_read = v_lat then lat_ts <= begin_ts
    else
      match Hashtbl.find_opt t.version_ts (item, v_read + 1) with
      | Some ts -> ts > begin_ts
      | None -> false

  (* Every certified write and committed-transaction record older than the
     oldest active begin timestamp can no longer participate in a snapshot
     check or a dangerous structure with anything that certifies later. *)
  let gc t ~now =
    let floor = Hashtbl.fold (fun _ b acc -> min b acc) t.active now in
    t.recent <- List.filter (fun r -> r.c_commit > floor) t.recent;
    let dead =
      Hashtbl.fold (fun k ts acc -> if ts <= floor then k :: acc else acc) t.version_ts []
    in
    List.iter (Hashtbl.remove t.version_ts) dead

  let intersects keys pairs = List.exists (fun (i, _) -> List.mem i keys) pairs

  let certify t ~now (txn : txn) =
    Hashtbl.remove t.active txn.gid;
    if not (List.for_all (snapshot_ok t ~begin_ts:txn.begin_ts) txn.reads) then Abort Stale_read
    else if
      (* First committer wins: a concurrent transaction already committed a
         write to something we also write. *)
      List.exists (fun item -> snd (latest t item) > txn.begin_ts) txn.writes
    then Abort Ww_conflict
    else begin
      let read_items = List.map fst txn.reads in
      let concurrent u = u.c_commit > txn.begin_ts in
      (* Outgoing rw edges: committed concurrent U overwrote something we
         read. Our reads passed the snapshot check, so U's version is
         invisible to us — a genuine antidependency. *)
      let outs = List.filter (fun u -> concurrent u && intersects read_items u.c_writes) t.recent in
      (* Incoming rw edges: committed concurrent V read something we are about
         to overwrite. *)
      let ins = List.filter (fun v -> concurrent v && intersects txn.writes v.c_reads) t.recent in
      if
        (outs <> [] && ins <> [])
        || List.exists (fun u -> u.out_c) outs
        || List.exists (fun v -> v.in_c) ins
      then begin
        (* Either we are the pivot of a dangerous structure, or committing
           would complete one whose pivot already committed. *)
        t.n_dangerous <- t.n_dangerous + 1;
        Abort Dangerous
      end
      else begin
        let vwrites =
          List.map
            (fun item ->
              let v = latest_version t item + 1 in
              Hashtbl.replace t.latest item (v, now);
              Hashtbl.replace t.version_ts (item, v) now;
              (item, v))
            txn.writes
        in
        let r =
          {
            c_gid = txn.gid;
            c_commit = now;
            c_reads = txn.reads;
            c_writes = vwrites;
            in_c = ins <> [];
            out_c = outs <> [];
          }
        in
        List.iter (fun u -> u.in_c <- true) outs;
        List.iter (fun v -> v.out_c <- true) ins;
        t.recent <- r :: t.recent;
        t.commits <- t.commits + 1;
        if t.commits mod 64 = 0 then gc t ~now;
        Commit { commit_ts = now; writes = vwrites }
      end
    end

  let dangerous_aborts t = t.n_dangerous

  let seed t ~item ~version ~commit_ts =
    Hashtbl.replace t.latest item (version, commit_ts);
    Hashtbl.replace t.version_ts (item, version) commit_ts
end

let reference_verdict = function
  | Reference.Commit { commit_ts; writes } -> Ok (commit_ts, writes)
  | Reference.Abort Reference.Stale_read -> Error "stale"
  | Reference.Abort Reference.Ww_conflict -> Error "ww"
  | Reference.Abort Reference.Dangerous -> Error "dangerous"

let tracker_verdict = function
  | Tracker.Commit { commit_ts; writes } -> Ok (commit_ts, writes)
  | Tracker.Abort Tracker.Stale_read -> Error "stale"
  | Tracker.Abort Tracker.Ww_conflict -> Error "ww"
  | Tracker.Abort Tracker.Dangerous -> Error "dangerous"

let show_verdict = function
  | Ok (ts, writes) ->
      Printf.sprintf "commit@%g [%s]" ts
        (String.concat ";" (List.map (fun (i, v) -> Printf.sprintf "%d:%d" i v) writes))
  | Error cause -> cause

let test_tracker_differential =
  QCheck.Test.make ~count:1000 ~name:"indexed certifier = list-scan certifier"
    QCheck.(triple (int_range 100 400) (int_range 3 8) int)
    (fun (n_txns, n_items, seed) ->
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let t = Tracker.create () and r = Reference.create () in
      (* Committed and pinned versions per item, newest first. *)
      let history = Array.make n_items [ (0, neg_infinity) ] in
      let version_at item ts = fst (List.find (fun (_, cts) -> cts <= ts) history.(item)) in
      let latest item = fst (List.hd history.(item)) in
      let pin item version ts =
        history.(item) <- (version, ts) :: history.(item);
        Tracker.seed t ~item ~version ~commit_ts:ts;
        Reference.seed r ~item ~version ~commit_ts:ts
      in
      let subset k = List.filter (fun _ -> Random.State.int rng k = 0) (List.init n_items Fun.id) in
      let now = ref 0.0 and last = ref 0.0 and active = ref [] and next_gid = ref 0 in
      let begin_ () =
        incr next_gid;
        let gid = !next_gid in
        (* Time passes between certifications too; half-unit steps make ties. *)
        now := !now +. float_of_int (Random.State.int rng 3);
        let steps = int_of_float (2.0 *. (!now -. !last)) in
        let begin_ts = !last +. (0.5 *. float_of_int (Random.State.int rng (steps + 1))) in
        let reads =
          List.map
            (fun item ->
              let v = version_at item begin_ts in
              (* A lagging or a too-new copy now and then. *)
              (item, match Random.State.int rng 20 with 0 -> v - 1 | 1 -> v + 1 | _ -> v))
            (subset 3)
        in
        Tracker.begin_txn t ~gid ~begin_ts;
        Reference.begin_txn r ~gid ~begin_ts;
        active := (gid, begin_ts, reads, subset 4) :: !active
      in
      let certify () =
        let ((gid, begin_ts, reads, writes) as a) = pick !active in
        active := List.filter (( != ) a) !active;
        if Random.State.int rng 20 = 0 then begin
          Tracker.forget t ~gid;
          Reference.forget r ~gid
        end
        else begin
          now := !now +. float_of_int (Random.State.int rng 3);
          last := !now;
          let got = tracker_verdict (Tracker.certify t ~now:!now { gid; begin_ts; reads; writes }) in
          let want = reference_verdict (Reference.certify r ~now:!now { gid; begin_ts; reads; writes }) in
          if got <> want then
            QCheck.Test.fail_reportf "gid %d: %s, reference %s" gid (show_verdict got) (show_verdict want);
          match got with
          | Ok (ts, vwrites) ->
              List.iter (fun (item, v) -> history.(item) <- (v, ts) :: history.(item)) vwrites
          | Error _ ->
              if Random.State.bool rng then
                List.iter (fun item -> pin item (latest item + Random.State.int rng 2) !now) writes
        end
      in
      for _ = 1 to n_txns do
        begin_ ();
        while List.length !active > Random.State.int rng 6 do
          certify ()
        done
      done;
      while !active <> [] do
        certify ()
      done;
      if Tracker.dangerous_aborts t <> Reference.dangerous_aborts r then
        QCheck.Test.fail_reportf "dangerous aborts %d, reference %d" (Tracker.dangerous_aborts t)
          (Reference.dangerous_aborts r);
      true)

(* The same for version chains: with [~cap:4], more than three times [cap]
   appends (and a reseed now and then), [read_at] at any timestamp answers
   as a list cut back to [cap] entries after every append. *)
let test_mvstore_differential =
  QCheck.Test.make ~count:300 ~name:"version chain = truncated list"
    QCheck.(pair (int_range 13 60) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let cap = 4 in
      let mv = Mvstore.create ~cap [ 0 ] in
      let model = ref [ (0, neg_infinity) ] and v = ref 0 and ts = ref 0.0 in
      let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> [] in
      let expect at = Option.map fst (List.find_opt (fun (_, cts) -> cts <= at) !model) in
      for _ = 1 to n do
        v := !v + 1 + Random.State.int rng 2;
        ts := !ts +. float_of_int (Random.State.int rng 3);
        if Random.State.int rng 25 = 0 then begin
          Mvstore.seed mv ~item:0 ~version:!v ~commit_ts:!ts;
          model := [ (!v, !ts) ]
        end
        else begin
          Mvstore.append mv ~item:0 ~version:!v ~commit_ts:!ts;
          model := take cap ((!v, !ts) :: !model)
        end;
        for _ = 1 to 4 do
          let at = Random.State.float rng (!ts +. 2.0) -. 1.0 in
          if Mvstore.read_at mv ~item:0 ~ts:at <> expect at then
            QCheck.Test.fail_reportf "read_at %g after version %d" at !v
        done;
        if Mvstore.latest mv ~item:0 <> Some !v then QCheck.Test.fail_report "latest"
      done;
      Mvstore.read_at mv ~item:0 ~ts:neg_infinity = expect neg_infinity)

(* --- full harness: combined faults + partition + reconfig ------------------ *)

let combined_params =
  {
    Params.default with
    n_sites = 4;
    n_items = 24;
    threads_per_site = 2;
    txns_per_thread = 8;
    backedge_prob = 0.0;
    record_history = true;
    txn_deadline = 200.0;
    retry = Params.default_backoff;
    faults =
      (match
         Repdb_fault.Fault.of_string
           "crash@300:site=1,down=300;partition@600-900:groups=0.1|2.3;rto=5"
       with
      | Ok s -> s
      | Error m -> failwith m);
    reconfig =
      (match Repdb_reconfig.Reconfig.of_string "add@100:item=3,site=2;rebalance@1200:from=3,to=0" with
      | Ok s -> s
      | Error m -> failwith m);
  }

let test_combined_survival () =
  List.iter
    (fun name ->
      let protocol = Option.get (Repdb.Registry.find name) in
      let r = Repdb.Driver.run combined_params protocol in
      checkb (name ^ ": committed work") true (r.summary.commits > 0);
      checki (name ^ ": crash injected") 1 r.crashes;
      checkb (name ^ ": partition activated") true (r.partitions > 0);
      checki (name ^ ": reconfigs executed") 2 r.reconfigs;
      (match r.serializability with
      | Some Repdb_txn.Serializability.Serializable -> ()
      | Some _ -> Alcotest.failf "%s: not serializable under combined faults" name
      | None -> Alcotest.failf "%s: no serializability verdict" name);
      match r.divergent with
      | Some [] -> ()
      | Some d -> Alcotest.failf "%s: %d divergent copies" name (List.length d)
      | None -> Alcotest.failf "%s: no convergence check ran" name)
    [ "occ-epoch"; "ssi" ]

let test_combined_deterministic () =
  (* Byte-identical pretty-printed reports across repeats under the combined
     fault + partition + reconfig schedule. *)
  List.iter
    (fun name ->
      let protocol = Option.get (Repdb.Registry.find name) in
      let show () = Fmt.str "%a" Repdb.Driver.pp_report (Repdb.Driver.run combined_params protocol) in
      checks (name ^ ": identical across repeats") (show ()) (show ()))
    [ "occ-epoch"; "ssi" ]

(* --- ssi under short deadlines ----------------------------------------------- *)

(* A deadline can pass while an ssi attempt waits for the CPU to send its
   remote Certify. Such an attempt used to arm its reply timer in the past
   and stop the run with [Sim.Stuck]; it now aborts before sending, with its
   certifier registration withdrawn. Default params are
   `repdb run -p ssi --deadline D --txns 30 --seed S`. *)
let test_ssi_short_deadline () =
  let ssi = Option.get (Repdb.Registry.find "ssi") in
  List.iter
    (fun deadline ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "deadline %g, seed %d" deadline seed in
          let r =
            Repdb.Driver.run
              { Params.default with txn_deadline = deadline; txns_per_thread = 30; seed;
                record_history = true }
              ssi
          in
          checkb (what ^ ": deadline aborts") true
            (List.assoc_opt Txn.Deadline_exceeded r.summary.aborts_by_reason <> None);
          (match r.serializability with
          | Some Repdb_txn.Serializability.Serializable -> ()
          | _ -> Alcotest.failf "%s: not serializable" what);
          match r.divergent with
          | Some [] -> ()
          | _ -> Alcotest.failf "%s: replicas diverge" what)
        [ 1; 2; 3 ])
    [ 5.0; 10.0 ]

(* --- occ sweep: determinism and the optimistic-vs-locking crossover -------- *)

let sweep_base =
  { Params.default with n_sites = 4; n_items = 200; threads_per_site = 3; txns_per_thread = 8 }

let test_sweep_csv_identical () =
  let seq = Experiments.output "occ" sweep_base in
  checks "identical across repeats" seq
    (Experiments.output "occ" sweep_base);
  let par =
    Repdb_par.Pool.with_pool ~domains:2 (fun pool ->
        Experiments.output ~pool "occ" sweep_base)
  in
  checks "identical across -j levels" seq par

let test_sweep_crossover () =
  let fig = Experiments.figure "occ" sweep_base in
  let report ~x ~proto =
    let pt = List.find (fun (p : Repdb.Experiment.point) -> p.x = x) fig.points in
    List.assoc proto pt.reports
  in
  let reason (r : Repdb.Driver.report) reason =
    match List.assoc_opt reason r.summary.aborts_by_reason with Some n -> n | None -> 0
  in
  let lo = report ~x:0.0 ~proto:"occ-epoch" and hi = report ~x:0.99 ~proto:"occ-epoch" in
  (* Zipf skew concentrates the read/write sets: validation aborts rise. *)
  checkb "occ-epoch validation aborts rise with skew" true
    (reason hi Txn.Validation_failed > reason lo Txn.Validation_failed);
  (* The ssi certifier pays in its own currencies under skew. *)
  let shi = report ~x:0.99 ~proto:"ssi" in
  checkb "ssi optimistic aborts present under skew" true
    (reason shi Txn.First_committer_lost + reason shi Txn.Dangerous_structure > 0);
  (* Crossover against lock-based PSL: optimistic wins per-site throughput
     at uniform access, locking wins under heavy skew. *)
  let psl_lo = report ~x:0.0 ~proto:"psl" and psl_hi = report ~x:0.99 ~proto:"psl" in
  checkb "optimistic wins at low contention" true
    (lo.summary.throughput_per_site > psl_lo.summary.throughput_per_site);
  checkb "locking wins under heavy skew" true
    (psl_hi.summary.throughput_per_site > hi.summary.throughput_per_site);
  (* Lock-based protocols never abort on validation. *)
  checki "psl has no validation aborts" 0 (reason psl_hi Txn.Validation_failed)

let () =
  Alcotest.run "occ"
    [
      ("registry", [ Alcotest.test_case "single source of truth" `Quick test_registry ]);
      ( "validator",
        [ Alcotest.test_case "backward validation" `Quick test_validator ] );
      ( "tracker",
        [
          Alcotest.test_case "first committer wins" `Quick test_tracker_first_committer_wins;
          Alcotest.test_case "stale read" `Quick test_tracker_stale_read;
          Alcotest.test_case "write skew aborts" `Quick test_tracker_write_skew;
          QCheck_alcotest.to_alcotest test_certifier_sound;
          QCheck_alcotest.to_alcotest test_tracker_differential;
          QCheck_alcotest.to_alcotest test_mvstore_differential;
        ] );
      ( "harness",
        [
          Alcotest.test_case "combined faults survival" `Quick test_combined_survival;
          Alcotest.test_case "combined faults deterministic" `Quick test_combined_deterministic;
          Alcotest.test_case "ssi short deadlines" `Quick test_ssi_short_deadline;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "csv identical" `Slow test_sweep_csv_identical;
          Alcotest.test_case "crossover" `Slow test_sweep_crossover;
        ] );
    ]
