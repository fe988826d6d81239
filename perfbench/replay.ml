(* Per-layer replays: each layer is timed from outside the program.

   A traced (or history-recording) run gives the call stream one layer
   received. The stream is replayed against a fresh instance of that layer
   through its public functions, and again as an "empty" replay that walks
   the same schedule with no-op bodies. The layer's self time is the
   difference. Kernel events a layer schedules for itself (network
   deliveries, lock-timeout timers) are scheduled as no-op timers in the
   empty replay too, so their dispatch cost is counted once, in the sim
   layer, whose own replay is the bare-kernel loops at the end. *)

module Cluster = Repdb.Cluster
module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network
module Store = Repdb_store.Store
module Wal = Repdb_store.Wal
module Mvstore = Repdb_store.Mvstore
module History = Repdb_txn.History
module Validator = Repdb_occ.Validator
module Conflict_tracker = Repdb_occ.Conflict_tracker
module Generator = Repdb_workload.Generator
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [self_time ~reps ~prepare run] — median over [reps] of [run ~empty:false]
   minus the median of [run ~empty:true], alternating the two so drift hits
   both. [prepare] builds fresh, untimed state for each replay; the timed
   part is [run]. Returns the self time (clamped at 0) and the last full
   replay's result. *)
let self_time ~reps ~prepare run =
  let full = ref [] and empty = ref [] and last = ref None in
  for _ = 1 to max 1 reps do
    Gc.full_major ();
    let st = prepare () in
    let t, v = time (fun () -> run st ~empty:false) in
    full := t :: !full;
    last := Some v;
    Gc.full_major ();
    let st = prepare () in
    let t, _ = time (fun () -> run st ~empty:true) in
    empty := t :: !empty
  done;
  (Float.max 0.0 (median !full -. median !empty), Option.get !last)

(* Drive [ops] through [sim] at their recorded simulated times, in recorded
   order. Each step schedules the next one at its absolute time. With
   [relay], it does so from a zero-delay event, so that a process the step
   spawned has run, and scheduled its own timers, before the next step is
   queued: same-instant ties then break as they did in the traced run, where
   the operation ran synchronously. *)
let schedule ?(relay = false) sim ops f =
  let n = Array.length ops in
  let rec step i =
    f (snd ops.(i));
    if i + 1 < n then begin
      let next () = Sim.at sim (fst ops.(i + 1)) (fun () -> step (i + 1)) in
      if relay then Sim.after sim 0.0 next else next ()
    end
  in
  if n > 0 then Sim.at sim (fst ops.(0)) (fun () -> step 0)

(* --- lock ---------------------------------------------------------------- *)

type lock_op =
  | Acquire of { site : int; owner : int; item : int; mode : Lock_mgr.mode; waited : bool }
  | Release of { site : int; owner : int }
  | Victim of { site : int; owner : int }

let mode_of = function Event.Shared -> Lock_mgr.Shared | Event.Exclusive -> Lock_mgr.Exclusive

(* Lock_wait is recorded inside the acquire call that recorded the
   Lock_request just before it, so it marks the previous op. *)
let lock_stream trace =
  let ops = ref [] in
  Trace.iter trace (fun (e : Event.t) ->
      match e.kind with
      | Lock_request { site; owner; item; mode } ->
          ops := (e.time, Acquire { site; owner; item; mode = mode_of mode; waited = false }) :: !ops
      | Lock_wait _ -> (
          match !ops with
          | (t, Acquire a) :: rest -> ops := (t, Acquire { a with waited = true }) :: rest
          | _ -> ())
      | Lock_release { site; owner } -> ops := (e.time, Release { site; owner }) :: !ops
      | Lock_deadlock { site; owner; _ } -> ops := (e.time, Victim { site; owner }) :: !ops
      | _ -> ());
  Array.of_list (List.rev !ops)

(* [c] is a fresh, never-run cluster of the traced job: its lock managers
   carry the run's policy, slot map and wait hooks. In the empty replay a
   waiting acquire schedules a no-op timer in place of the lock-timeout
   timer. *)
let replay_lock (c : Cluster.t) ops ~empty =
  let sim = c.sim and mgrs = c.locks and timeout = c.params.lock_timeout in
  schedule ~relay:true sim ops (function
    | Acquire { site; owner; item; mode; waited } ->
        if empty then begin
          Sim.spawn sim ignore;
          if waited then Sim.after sim timeout ignore
        end
        else Sim.spawn sim (fun () -> ignore (Lock_mgr.acquire mgrs.(site) ~owner item mode))
    | Release { site; owner } -> if not empty then Lock_mgr.release_all mgrs.(site) ~owner
    | Victim { site; owner } -> if not empty then ignore (Lock_mgr.abort_waiter mgrs.(site) ~owner));
  Sim.run sim;
  Array.fold_left
    (fun (acc : Lock_mgr.stats) m ->
      let s = Lock_mgr.stats m in
      {
        Lock_mgr.acquires = acc.acquires + s.acquires;
        waits = acc.waits + s.waits;
        timeouts = acc.timeouts + s.timeouts;
        deadlock_aborts = acc.deadlock_aborts + s.deadlock_aborts;
      })
    { Lock_mgr.acquires = 0; waits = 0; timeouts = 0; deadlock_aborts = 0 }
    mgrs

(* --- net ----------------------------------------------------------------- *)

let send_stream trace =
  let ops = ref [] in
  Trace.iter trace (fun (e : Event.t) ->
      match e.kind with Msg_send { src; dst; _ } -> ops := (e.time, (src, dst)) :: !ops | _ -> ());
  Array.of_list (List.rev !ops)

(* On a fresh cluster [c] of the traced job, so the run's latency function
   and an unused fault injector (its link-loss draws replay identically).
   Returns (messages sent, transmission attempts dropped). *)
let replay_net (c : Cluster.t) ops ~empty =
  let sim = c.sim and n_sites = c.params.n_sites and latency = Cluster.latency_fn c in
  let net = Network.create ~sim ~n_sites ~latency ?injector:c.injector () in
  for dst = 0 to n_sites - 1 do
    Network.set_handler net dst (fun ~src:_ () -> ())
  done;
  schedule sim ops (fun (src, dst) ->
      if empty then Sim.after sim (latency src dst) ignore else Network.send net ~src ~dst ());
  Sim.run sim;
  (Network.messages_sent net, Network.messages_dropped net)

(* --- store --------------------------------------------------------------- *)

type access = { a_site : int; a_item : int; a_gid : int; a_write : bool; a_version : int (* -1: none *) }

(* Committed accesses of a history-recording run. Per-(site, item) logs are
   merged round-robin: each log keeps its order (versions stay monotone) but
   consecutive accesses hit different items, as they do in a run. Aborted
   attempts are not in the history, so their reads are not replayed. *)
let access_stream history =
  let logs =
    List.map
      (fun (site, item) ->
        ref
          (List.map
             (fun (a : History.access) ->
               {
                 a_site = site;
                 a_item = item;
                 a_gid = a.gid;
                 a_write = a.kind = History.W;
                 a_version = Option.value a.version ~default:(-1);
               })
             (History.committed_log history ~site ~item)))
      (History.touched history)
  in
  let out = ref [] in
  let rec drain logs =
    let live =
      List.filter
        (fun l ->
          match !l with
          | a :: rest ->
              out := a :: !out;
              l := rest;
              rest <> []
          | [] -> false)
        logs
    in
    if live <> [] then drain live
  in
  drain logs;
  Array.of_list (List.rev !out)

type store_state = { stores : Store.t array; wals : Wal.t array; mvs : Mvstore.t array }

(* Fresh stores holding every copy the run placed or touched at each site,
   with a redo log attached when the job was faulty and a version index when
   its accesses carry versions. *)
let store_state ~n_sites ~placement ~faulty ~versioned accesses =
  let items = Array.init n_sites (fun _ -> Hashtbl.create 64) in
  for site = 0 to n_sites - 1 do
    Array.iter (fun i -> Hashtbl.replace items.(site) i ()) (Placement.placed_at placement site)
  done;
  Array.iter (fun a -> Hashtbl.replace items.(a.a_site) a.a_item ()) accesses;
  let items = Array.map (fun h -> List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) h [])) items in
  let stores = Array.mapi (fun site l -> Store.create ~site l) items in
  let wals =
    if faulty then
      Array.map
        (fun st ->
          let w = Wal.create () in
          Wal.attach w st;
          w)
        stores
    else [||]
  in
  let mvs = if versioned then Array.map (fun l -> Mvstore.create l) items else [||] in
  { stores; wals; mvs }

(* Returns (reads, writes, WAL records). *)
let replay_store st accesses ~empty =
  let reads = ref 0 and writes = ref 0 and clock = ref 0.0 in
  if empty then Array.iter (fun a -> ignore (Sys.opaque_identity a)) accesses
  else
    Array.iter
      (fun a ->
        let store = st.stores.(a.a_site) in
        if a.a_write then begin
          incr writes;
          Store.apply store a.a_item ~writer:a.a_gid ();
          if a.a_version >= 0 then
            let mv = st.mvs.(a.a_site) in
            match Mvstore.latest mv ~item:a.a_item with
            | Some v when a.a_version > v ->
                clock := !clock +. 1.0;
                Mvstore.append mv ~item:a.a_item ~version:a.a_version ~commit_ts:!clock
            | _ -> ()
        end
        else begin
          incr reads;
          ignore (Store.read store a.a_item);
          if a.a_version >= 0 then
            ignore (Mvstore.read_at st.mvs.(a.a_site) ~item:a.a_item ~ts:infinity)
        end)
      accesses;
  (!reads, !writes, Array.fold_left (fun acc w -> acc + Wal.length w) 0 st.wals)

(* --- occ ----------------------------------------------------------------- *)

(* Committed versioned read and write sets by gid. Replica applies share
   their transaction's gid and item, so write sets are deduplicated by item.
   Rejected transactions are not in the history, so only the accept path of
   the certifiers is replayed. *)
let occ_sets accesses =
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (fun a ->
      if a.a_version >= 0 then begin
        let reads, writes =
          match Hashtbl.find_opt tbl a.a_gid with Some rw -> rw | None -> ([], [])
        in
        Hashtbl.replace tbl a.a_gid
          (if a.a_write then (reads, a.a_item :: writes) else ((a.a_item, a.a_version) :: reads, writes))
      end)
    accesses;
  Hashtbl.filter_map_inplace
    (fun _ (reads, writes) -> Some (List.sort_uniq compare reads, List.sort_uniq compare writes))
    tbl;
  tbl

(* Simulated begin and commit times of every transaction of a traced run,
   by gid. *)
let txn_times trace =
  let begins = Hashtbl.create 1024 and commits = Hashtbl.create 1024 in
  Trace.iter trace (fun (e : Event.t) ->
      match e.kind with
      | Txn_begin { gid; _ } -> Hashtbl.replace begins gid e.time
      | Txn_commit { gid; _ } -> Hashtbl.replace commits gid e.time
      | _ -> ());
  (begins, commits)

type tracker_step =
  | Begin of { gid : int; at : float }
  | Certify of { at : float; txn : Conflict_tracker.txn; installed : (int * int) list }
      (** [installed]: the versions the run's certifier gave [txn]'s writes. *)

type occ_stream = Validator_stream of Validator.txn array | Tracker_stream of tracker_step array

(* occ-epoch: [order] is the gids in a topological order of the history's
   serialization graph. Its version edges pin, for every item, which
   writers validated before each reader and writer, so validating in this
   order reproduces the run's verdict and installed version for each
   committed transaction. *)
let validator_stream ~order sets =
  Validator_stream
    (Array.of_list
       (List.filter_map
          (fun gid ->
            Option.map (fun (reads, writes) -> { Validator.gid; reads; writes }) (Hashtbl.find_opt sets gid))
          order))

(* ssi: begin at the traced Txn_begin time, which is the run's begin
   timestamp. The certification time is not traced; the origin traces its
   commit only after the certifier's reply and its own CPU queue. So each
   transaction certifies at the latest time the run's versions allow: no
   later than its traced commit, than the begin of any transaction that read
   a version it installed, or than the begin of the next writer of an item
   it wrote (first committer wins, so that writer began after it committed).
   The real certification time meets the same bounds, so the snapshot checks
   and the writers' version order replay as they ran; the concurrency
   windows of the dangerous-structure rule can be wider, and the caller
   counts the verdicts that differ. *)
let tracker_stream ~times:(begins, commits) accesses sets =
  let writer = Hashtbl.create 1024 and installed = Hashtbl.create 1024 in
  Array.iter
    (fun a ->
      if a.a_write && a.a_version >= 0 && not (Hashtbl.mem writer (a.a_item, a.a_version)) then begin
        Hashtbl.replace writer (a.a_item, a.a_version) a.a_gid;
        Hashtbl.replace installed a.a_gid
          ((a.a_item, a.a_version) :: Option.value (Hashtbl.find_opt installed a.a_gid) ~default:[])
      end)
    accesses;
  let latest = Hashtbl.create 1024 in
  Hashtbl.iter (fun gid t -> if Hashtbl.mem sets gid then Hashtbl.replace latest gid t) commits;
  let bound gid ~by =
    match (Hashtbl.find_opt latest gid, Hashtbl.find_opt begins by) with
    | Some t, Some b when gid <> by && b < t -> Hashtbl.replace latest gid b
    | _ -> ()
  in
  Array.iter
    (fun a ->
      if a.a_version >= 0 then
        let v = if a.a_write then a.a_version - 1 else a.a_version in
        Option.iter (fun w -> bound w ~by:a.a_gid) (Hashtbl.find_opt writer (a.a_item, v)))
    accesses;
  let steps =
    Hashtbl.fold
      (fun gid (reads, writes) acc ->
        match (Hashtbl.find_opt begins gid, Hashtbl.find_opt latest gid) with
        | Some b, Some at ->
            let at = Float.max b at in
            let txn = { Conflict_tracker.gid; begin_ts = b; reads; writes } in
            let installed = Option.value (Hashtbl.find_opt installed gid) ~default:[] in
            ((b, 0, gid), Begin { gid; at = b }) :: ((at, 1, gid), Certify { at; txn; installed }) :: acc
        | _ -> acc)
      sets []
  in
  Tracker_stream (Array.of_list (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) steps)))

(* Returns (accepted, rejected). A committed transaction the ssi replay
   rejects still gets its versions pinned in the tracker, so that one
   differing verdict does not turn the later readers of those versions into
   stale reads. *)
let replay_occ stream ~empty =
  match stream with
  | Validator_stream txns ->
      let v = Validator.create () in
      Array.iter (fun t -> if empty then ignore (Sys.opaque_identity t) else ignore (Validator.validate v t)) txns;
      (Validator.validated v, Validator.rejected v)
  | Tracker_stream steps ->
      let ct = Conflict_tracker.create () in
      let accepted = ref 0 and rejected = ref 0 in
      Array.iter
        (fun step ->
          if empty then ignore (Sys.opaque_identity step)
          else
            match step with
            | Begin { gid; at } -> Conflict_tracker.begin_txn ct ~gid ~begin_ts:at
            | Certify { at; txn; installed } -> (
                match Conflict_tracker.certify ct ~now:at txn with
                | Commit _ -> incr accepted
                | Abort _ ->
                    incr rejected;
                    List.iter
                      (fun (item, version) -> Conflict_tracker.seed ct ~item ~version ~commit_ts:at)
                      installed))
        steps;
      (!accepted, !rejected)

(* --- workload ------------------------------------------------------------ *)

(* One [Generator.gen_with] per attempt the run made at each site, sites
   interleaved round-robin. Returns the number of transactions drawn. *)
let replay_gen (gen, rngs, attempts) ~empty =
  let left = Array.copy attempts in
  let n = ref 0 and live = ref true in
  while !live do
    live := false;
    Array.iteri
      (fun site k ->
        if k > 0 then begin
          live := true;
          left.(site) <- k - 1;
          incr n;
          if empty then ignore (Sys.opaque_identity rngs.(site))
          else ignore (Generator.gen_with gen rngs.(site) ~site)
        end)
      left
  done;
  !n

let gen_state (params : Params.t) placement attempts =
  let gen = Generator.create (Rng.create params.seed) params placement in
  let rngs = Array.init params.n_sites (fun site -> Rng.create ((params.seed * 131) + site)) in
  (gen, rngs, attempts)

(* --- sim ----------------------------------------------------------------- *)

(* The bare kernel, sized to [events]: a quarter each of preloaded plain
   callbacks, a process delay loop, suspend/resume pairs (two events each)
   and 64 interleaved delaying processes. The run's own event mix is not
   recorded, so the four shapes are weighted equally. Returns (events
   executed, minor words allocated). *)
let kernel_loops events =
  let q = max 64 (events / 4) in
  let run setup =
    let sim = Sim.create () in
    setup sim;
    Sim.run sim;
    Sim.events_executed sim
  in
  let w0 = Gc.minor_words () in
  let executed =
    run (fun sim ->
        for i = 1 to q do
          Sim.at sim (float_of_int i) ignore
        done)
    + run (fun sim ->
          Sim.spawn sim (fun () ->
              for _ = 1 to q do
                Sim.delay 1.0
              done))
    + run (fun sim ->
          Sim.spawn sim (fun () ->
              for _ = 1 to q / 2 do
                Sim.suspend (fun resume -> Sim.after sim 1.0 (fun () -> resume ()))
              done))
    + run (fun sim ->
          for p = 1 to 64 do
            Sim.spawn sim (fun () ->
                for _ = 1 to q / 64 do
                  Sim.delay (1.0 +. float_of_int (p mod 7))
                done)
          done)
  in
  (executed, Gc.minor_words () -. w0)
