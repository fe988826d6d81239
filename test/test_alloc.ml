(* Allocation budgets for the per-transaction hot paths: minor words per
   call, averaged over [calls] calls with [Gc.minor_words] deltas. Each
   budget is the measured value plus at most 15% headroom; the comments give
   the measured figures (OCaml 5.1.1, no flambda) before and after the
   allocation-lean rewrite of each path. A budget that fails means a change
   put allocation back on a path every transaction takes. *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Mailbox = Repdb_sim.Mailbox
module Condvar = Repdb_sim.Condvar
module Network = Repdb_net.Network
module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Generator = Repdb_workload.Generator
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Mvstore = Repdb_store.Mvstore
module Tracker = Repdb_occ.Conflict_tracker
module Validator = Repdb_occ.Validator
module History = Repdb_txn.History
module Serializability = Repdb_txn.Serializability

let calls = 10_000

(* One warm-up call first, so one-off growth (lock table, Zipf tables,
   hash buckets) is not charged to the steady state. *)
let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let within name ~budget words =
  Printf.printf "%-40s %7.2f words (budget %.2f)\n" name words budget;
  if words > budget then Alcotest.failf "%s: %.2f words per call, budget %.2f" name words budget

(* Paper defaults, ops=10: 375 words per call before, 65 after. *)
let test_gen_with () =
  let p = Params.default in
  let rng = Rng.create 42 in
  let gen = Generator.create rng p (Placement.generate rng p) in
  let site = ref 0 in
  within "Generator.gen_with (ops=10)" ~budget:74.0
    (words_per_call (fun () ->
         site := (!site + 1) mod p.n_sites;
         ignore (Sys.opaque_identity (Generator.gen_with gen rng ~site:!site))))

(* Ten uncontended locks, alternately shared and exclusive, then one
   [release_all]; per lock: 24.2 words before, 5.6 with a flat lock table,
   1.5 (the sharer cons cells) with hold sets in reused int stacks. *)
let test_acquire_release () =
  let sim = Sim.create () in
  let lm = Lock_mgr.create ~sim ~policy:(`Timeout 50.0) () in
  let owner = ref 0 in
  let per_owner =
    words_per_call (fun () ->
        incr owner;
        for item = 0 to 9 do
          let mode = if item land 1 = 0 then Lock_mgr.Shared else Lock_mgr.Exclusive in
          ignore (Sys.opaque_identity (Lock_mgr.acquire lm ~owner:!owner item mode))
        done;
        Lock_mgr.release_all lm ~owner:!owner)
  in
  within "Lock_mgr acquire + release_all, per lock" ~budget:1.73 (per_owner /. 10.0)

(* The write set of a generated spec with ten writes: 182 words as
   [List.sort_uniq compare] of a [List.filter_map], 30 (the returned list)
   once generator specs, already ascending, skip the sort. *)
let test_txn_writes () =
  let p = { Params.default with read_op_prob = 0.0; read_txn_prob = 0.0 } in
  let rng = Rng.create 42 in
  let gen = Generator.create rng p (Placement.generate rng p) in
  let spec = Generator.gen_with gen rng ~site:0 in
  Alcotest.(check int) "ten writes" 10 (List.length (Repdb_txn.Txn.writes spec));
  within "Txn.writes (10 writes)" ~budget:34.5
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Repdb_txn.Txn.writes spec))))

(* A secondary whose every item is replicated at the site: 35 words with
   [List.filter]'s closure and copy, 0 now that the input list comes back. *)
let test_local_replicas () =
  let placement =
    Placement.make ~n_sites:2 ~n_items:10 ~primary:(Array.make 10 0) ~replicas:(Array.make 10 [ 1 ])
  in
  let writes = List.init 10 Fun.id in
  within "Placement.local_replicas (all local)" ~budget:0.01
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Placement.local_replicas placement 1 writes))))

(* A commit's fan-out: 9 sites, ten written items each replicated at the
   three sites after its primary, sent from site 0 to the other eight. 119
   words with a [Hashtbl] destination set, 0 with the loop over site ids:
   the budget leaves room only for rounding. *)
let test_fan_out () =
  let m = 9 and n = 10 in
  let placement =
    Placement.make ~n_sites:m ~n_items:n
      ~primary:(Array.init n (fun i -> i mod m))
      ~replicas:(Array.init n (fun i -> List.init 3 (fun k -> (i + k + 1) mod m)))
  in
  let c = Repdb.Cluster.create_with { Params.default with n_sites = m; n_items = n } placement in
  let writes = List.init n Fun.id in
  let sent = ref 0 in
  let send dst = sent := !sent + dst in
  within "Exec.fan_out (8 destinations)" ~budget:0.01
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Repdb.Exec.fan_out c ~site:0 writes send))))

(* A participant set with no site, as BackEdge decides on every commit
   without backedge targets: the budget leaves room only for rounding. *)
let test_notify_empty () =
  let c = Repdb.Cluster.create Params.default in
  let net = Network.create ~sim:c.sim ~n_sites:2 ~latency:(fun _ _ -> 1.0) () in
  within "Exec.notify (no site)" ~budget:0.01
    (words_per_call (fun () -> Repdb.Exec.notify c net ~src:0 [] 0))

let store () = Store.create ~site:0 (List.init 200 Fun.id)

(* 4 words before, 0 after: the budget leaves room only for rounding. *)
let test_store_read () =
  let s = store () in
  let item = ref 0 in
  within "Store.read" ~budget:0.01
    (words_per_call (fun () ->
         item := (!item + 7) mod 200;
         ignore (Sys.opaque_identity (Store.read s !item))))

(* 13 words before, 4 after: the new value itself. *)
let test_store_apply () =
  let s = store () in
  let item = ref 0 in
  within "Store.apply" ~budget:4.6
    (words_per_call (fun () ->
         item := (!item + 7) mod 200;
         Store.apply s !item ~writer:1 ()))

(* One attempt's span: begin (which links its lock owner), a lock wait and
   a commit charge, and finish, with eight attempts open at once: 81 words
   with [Hashtbl]s and a polymorphic [Stats.bucket_of] (10 words per
   [Stats.observe]), 8 after, the floats boxed for [Float.max] and
   [Stats.observe]. *)
let test_span_cycle () =
  let spans = Span.create ~stats:(Stats.create ~n_sites:4 ()) ~trace:Repdb_obs.Trace.disabled () in
  let gid = ref 0 in
  let begin_ () =
    incr gid;
    Span.begin_ spans ~gid:!gid ~owner:(!gid + 1000) ~site:(!gid land 3) ~now:1.0
  in
  for _ = 1 to 7 do
    begin_ ()
  done;
  within "Span begin + 2 charges + finish" ~budget:9.2
    (words_per_call (fun () ->
         begin_ ();
         Span.add spans ~owner:(!gid + 1000) Span.Lock_wait 0.5;
         Span.add spans ~owner:(!gid + 1000) Span.Commit 0.25;
         Span.finish spans ~gid:(!gid - 7) ~now:2.0))

(* One traced event into a default-capacity ring, growing as it fills: 7
   words with a fresh [Some] per slot, 5 with the event stored directly
   (the record and its boxed time). *)
let test_trace_record () =
  let now = ref 0.0 in
  let tr = Repdb_obs.Trace.create ~clock:(fun () -> !now) () in
  let kind = Repdb_obs.Event.Txn_begin { gid = 1; site = 0 } in
  within "Trace.record" ~budget:5.75
    (words_per_call (fun () ->
         now := !now +. 1.0;
         Repdb_obs.Trace.record tr kind))

(* SSI certification with a window of concurrent commits, as on a contended
   workload: transaction [k] begins at [k] and certifies at [k + 8], so the
   eight committed after its begin (and everything newer than the oldest
   active begin) are in the window. It reads two items and writes two,
   apart from the items of the transactions concurrent with it, so every
   certification commits. Per call, its [begin_txn] and the certification
   of the transaction begun eight calls earlier: 190 words with one
   [recent] list filtered twice and versions keyed by (item, version)
   tuples, 44 with each item's writers and readers in its own lists. *)
let test_certify () =
  let t = Tracker.create () and lag = 8 in
  let txns =
    Array.init (calls + lag + 1) (fun k ->
        let b = 4 * (k mod 16) in
        { Tracker.gid = k; begin_ts = float_of_int k; reads = [ (b, k / 16); (b + 1, 0) ];
          writes = [ b; b + 2 ] })
  in
  for k = 0 to lag - 1 do
    Tracker.begin_txn t ~gid:k ~begin_ts:txns.(k).begin_ts
  done;
  let next = ref lag in
  within "Conflict_tracker.certify (2 reads, 2 writes)" ~budget:51.1
    (words_per_call (fun () ->
         let k = !next in
         next := k + 1;
         Tracker.begin_txn t ~gid:k ~begin_ts:txns.(k).begin_ts;
         match Tracker.certify t ~now:txns.(k).begin_ts txns.(k - lag) with
         | Tracker.Commit _ as v -> ignore (Sys.opaque_identity v)
         | Tracker.Abort _ -> Alcotest.fail "a transaction with no conflict aborted"))

(* A chain holding its full window of 64 versions gets one more: 200
   words when every append copied the window, 4 (the new entry) once a
   chain is cut back only when it reaches twice the window. *)
let test_mvstore_append () =
  let mv = Mvstore.create [ 0 ] in
  let version = ref 0 in
  let append () =
    incr version;
    Mvstore.append mv ~item:0 ~version:!version ~commit_ts:1.0
  in
  for _ = 1 to 64 do
    append ()
  done;
  within "Mvstore.append (full chain)" ~budget:4.6 (words_per_call append)

(* A snapshot read 40 versions back in a full chain: 8 words with
   [find_opt] and a closure over the timestamp, 2 (the returned [Some]). *)
let test_mvstore_read_at () =
  let mv = Mvstore.create [ 0 ] in
  for v = 1 to 64 do
    Mvstore.append mv ~item:0 ~version:v ~commit_ts:(float_of_int v)
  done;
  within "Mvstore.read_at" ~budget:2.3
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Mvstore.read_at mv ~item:0 ~ts:24.5))))

(* Backward validation of a transaction reading two items and writing two
   others, so it always passes: 27 words with [find_opt] and closures, 14
   (the returned [Some] and version list). *)
let test_validate () =
  let v = Validator.create () in
  let txn = { Validator.gid = 1; reads = [ (10, 0); (11, 0) ]; writes = [ 0; 1 ] } in
  within "Validator.validate (2 reads, 2 writes)" ~budget:16.1
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Validator.validate v txn))))

(* A recording history over 8 sites x 8 items, grown past the calls that
   follow, so that they record into arrays that do not grow. *)
let grown_history () =
  let h = History.create ~n_sites:8 () in
  for i = 0 to (2 * calls) - 1 do
    History.record h ~site:(i land 7) ~item:((i lsr 3) land 7) ~gid:i ~attempt:i History.W
  done;
  h

(* One access to an existing log: 7 words with a record per access and the
   [Some] of the log lookup, 0 with the access in flat int arrays. *)
let test_history_record () =
  let h = grown_history () and i = ref 0 in
  within "History.record, positional" ~budget:0.01
    (words_per_call (fun () ->
         incr i;
         History.record h ~site:(!i land 7) ~item:((!i lsr 3) land 7) ~gid:!i ~attempt:!i History.R))

(* The same with a version: 9 words (the optional argument's [Some] on
   top), 0 with [record_versioned]. *)
let test_history_record_versioned () =
  let h = grown_history () and i = ref 0 in
  within "History.record, versioned" ~budget:0.01
    (words_per_call (fun () ->
         incr i;
         History.record_versioned h ~site:(!i land 7) ~item:((!i lsr 3) land 7) ~gid:!i ~attempt:!i
           ~version:!i History.W))

(* A new aborted attempt, into a set grown past the calls: 4 words with a
   [Hashtbl] bucket per attempt, 0 in an [Int_index]. *)
let test_history_discard () =
  let h = History.create ~n_sites:1 () and attempt = ref 0 in
  for _ = 1 to 3 * calls do
    incr attempt;
    History.discard_attempt h ~attempt:!attempt
  done;
  within "History.discard_attempt" ~budget:0.01
    (words_per_call (fun () ->
         incr attempt;
         History.discard_attempt h ~attempt:!attempt))

(* A serializable history of 20000 accesses, four per transaction, over 8
   sites x 64 items; the first 16 items are versioned (a transaction
   installs its gid as version and reads the version before it), and every
   tenth attempt is discarded. Minor words per access of one [check]:
   5.48 with the history copied out into per-log arrays of records,
   0.44 on the flat arrays (what remains is the versioned logs' sorts and
   a few closures; the arrays themselves go straight to the major heap). *)
let test_check () =
  let n = 20_000 and reps = 20 in
  let h = History.create ~n_sites:8 () in
  for i = 0 to n - 1 do
    let gid = i / 4 and site = i land 7 and item = (i * 7) land 63 in
    let kind = if i land 1 = 0 then History.R else History.W in
    if item < 16 then
      History.record_versioned h ~site ~item ~gid ~attempt:gid
        ~version:(if kind = History.W then gid else gid - 1)
        kind
    else History.record h ~site ~item ~gid ~attempt:gid kind
  done;
  for gid = 0 to (n / 4) - 1 do
    if gid mod 10 = 9 then History.discard_attempt h ~attempt:gid
  done;
  Alcotest.(check bool) "serializable" true (Serializability.check h = Serializability.Serializable);
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Serializability.check h))
  done;
  within "Serializability.check, per access" ~budget:0.5
    ((Gc.minor_words () -. before) /. float_of_int (reps * n))

(* The effect runtime's own allocation differs between compiler releases,
   so the kernel budgets are pinned on OCaml 5.1 only and reported
   elsewhere. *)
let within_on_5_1 name ~budget words =
  if String.starts_with ~prefix:"5.1." Sys.ocaml_version then within name ~budget words
  else Printf.printf "%-40s %7.2f words (budget pinned on OCaml 5.1 only)\n" name words

(* One process blocking [calls] times; charged per delay, scheduling and
   resumption included: 20 words with a handler built per delay, 13 with
   one built per process, 10 once the duration travels through a
   per-domain cell instead of the effect, 2 (the continuation the runtime
   captures) once the heap holds it bare and no time is boxed. *)
let test_sim_delay () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 1.0);
  Sim.run sim;
  let before = Gc.minor_words () in
  Sim.spawn sim (fun () ->
      for _ = 1 to calls do
        Sim.delay 1.0
      done);
  Sim.run sim;
  within_on_5_1 "Sim.delay" ~budget:2.3 ((Gc.minor_words () -. before) /. float_of_int calls)

(* Two processes alternating on a capacity-1 resource, so every [use]
   after the first parks and is woken: 55 words per use with a queue of
   [Sim.suspend] closures, 20 on a [Sim.waitq], 4 once wakes and delays
   schedule the bare continuation, 2 (one captured continuation) once the
   wake hands the unit over with the hold, so the waiter resumes once. *)
let test_resource_use () =
  let sim = Sim.create () in
  let cpu = Resource.create ~sim ~capacity:1 () in
  let contend n =
    for _ = 1 to 2 do
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            Resource.use cpu 1.0
          done)
    done;
    Sim.run sim
  in
  contend 1;
  let before = Gc.minor_words () in
  contend (calls / 2);
  within_on_5_1 "Resource.use (contended)" ~budget:2.3
    ((Gc.minor_words () -. before) /. float_of_int calls)

(* Words per cycle of a kernel scenario on [sim]: [scenario sim n] sets up
   [n] cycles, then the kernel runs dry. One short warm-up run first, on
   the same kernel, so ring and heap growth is not charged. *)
let kernel_words_on sim scenario =
  scenario sim 64;
  Sim.run sim;
  let before = Gc.minor_words () in
  scenario sim calls;
  Sim.run sim;
  (Gc.minor_words () -. before) /. float_of_int calls

let kernel_words scenario = kernel_words_on (Sim.create ()) scenario

(* Processes that start and exit at one instant: per spawn, its lane
   entries and what the runtime allocates for its fiber. 25 words with a
   closure around each process and a handler built per process, 5 with the
   process itself on the lane and one handler per kernel. *)
let test_spawn () =
  let spawns sim n =
    for _ = 1 to n do
      Sim.spawn sim ignore
    done
  in
  within_on_5_1 "Sim.spawn (start + exit)" ~budget:5.78 (kernel_words spawns)

(* Two processes ping-pong through two wait queues at one instant, so each
   cycle is one [park] and one [wake] served by the lane: 10 words with a
   closure per wake, 2 (the captured continuation) without. *)
let test_park_wake () =
  let ping_pong sim n =
    let qa = Sim.waitq sim and qb = Sim.waitq sim in
    let player mine theirs () =
      for _ = 1 to n do
        ignore (Sim.wake theirs);
        Sim.park mine
      done;
      ignore (Sim.wake theirs)
    in
    Sim.spawn sim (player qa qb);
    Sim.spawn sim (player qb qa)
  in
  within_on_5_1 "park + wake" ~budget:2.3 (kernel_words ping_pong /. 2.0)

(* Two processes alternate holding one exclusive lock for 1 ms under the
   [Timeout] policy, so every acquire waits: the request, its wait and the
   timeout timer, plus the hold's delay and the release. 93 words on
   [Sim.suspend], 58 on a one-shot wait, 40 with hold sets and waits kept
   in reused slots instead of [Hashtbl]s. *)
let test_lock_wait () =
  let alternate sim n =
    let lm = Lock_mgr.create ~sim ~policy:(`Timeout 50.0) () in
    let owner = ref 0 in
    for _ = 1 to 2 do
      Sim.spawn sim (fun () ->
          for _ = 1 to n / 2 do
            incr owner;
            let me = !owner in
            ignore (Sys.opaque_identity (Lock_mgr.acquire lm ~owner:me 0 Lock_mgr.Exclusive));
            Sim.delay 1.0;
            Lock_mgr.release_all lm ~owner:me
          done)
    done
  in
  within_on_5_1 "lock wait (Timeout), per acquire" ~budget:46.1 (kernel_words alternate)

(* [Exec.request]'s kernel part: a wait ended by a reply 1 ms later, raced
   by a deadline timer that loses. 53 words on [Sim.suspend], 25 on a
   one-shot wait. *)
let test_request_reply () =
  let round_trips sim n =
    Sim.spawn sim (fun () ->
        for i = 1 to n do
          let reply = Sim.once () in
          Sim.after sim 1.0 (fun () -> ignore (Sim.fire reply i));
          Sim.at sim (Sim.now sim +. 5.0) (fun () -> ignore (Sim.fire reply 0));
          ignore (Sys.opaque_identity (Sim.await reply))
        done)
  in
  within_on_5_1 "request/reply round trip" ~budget:28.8 (kernel_words round_trips)

(* A receiver always finds the mailbox empty: the sender delays 1 ms, then
   hands its value straight over. 59 words on [Sim.suspend], 19 on a
   one-shot wait. *)
let test_mailbox_recv () =
  let hand_offs sim n =
    let mb = Mailbox.create () in
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Mailbox.recv mb))
        done);
    Sim.spawn sim (fun () ->
        for i = 1 to n do
          Sim.delay 1.0;
          Mailbox.send mb i
        done)
  in
  within_on_5_1 "Mailbox.recv (empty), with the send" ~budget:21.9 (kernel_words hand_offs)

(* One site sends to another every 1 ms over a 1 ms link, so the serving
   process always finds its inbox empty: per delivered message, the send,
   its delivery event and the hand-off. 32 words with a closure per
   delivery and a [Mailbox] hand-off, 4 (the sender's and the server's
   continuations) with per-pair rings and a parked server. *)
let test_network_serve () =
  let total = ref 0 in
  let deliveries sim n =
    let net = Network.create ~sim ~n_sites:2 ~latency:(fun _ _ -> 1.0) () in
    Network.serve net 1 (fun ~src msg -> total := !total + src + msg);
    Sim.spawn sim (fun () ->
        for i = 1 to n do
          Sim.delay 1.0;
          Network.send net ~src:0 ~dst:1 i
        done)
  in
  within_on_5_1 "Network.serve, with the send" ~budget:4.63 (kernel_words deliveries)

(* A timed wait ended by a signal 1 ms later; the timer fires later and
   loses. 67 words on [Sim.suspend], 21 on a one-shot wait. *)
let test_condvar_await_timeout () =
  let signals sim n =
    let cv = Condvar.create () in
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Condvar.await_timeout sim cv 10.0))
        done);
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          Sim.delay 1.0;
          Condvar.signal cv
        done)
  in
  within_on_5_1 "Condvar.await_timeout, with the signal" ~budget:24.2
    (kernel_words signals)

(* A cluster of two sites holding one item, primary at site 0 and replica
   at site 1, under [params]. *)
let two_site_cluster params =
  let placement = Placement.make ~n_sites:2 ~n_items:1 ~primary:[| 0 |] ~replicas:[| [ 1 ] |] in
  Repdb.Cluster.create_with { params with Params.n_sites = 2; n_items = 1 } placement

(* Words per transaction of [submit spec] run back to back by one client
   process on [c]'s kernel. *)
let submits (c : Repdb.Cluster.t) submit spec =
  kernel_words_on c.sim (fun sim n ->
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (submit spec))
          done))

let remote_read = { Repdb_txn.Txn.origin = 1; ops = [ Repdb_txn.Txn.Read 0 ] }

(* A PSL transaction whose one operation reads a replica: the read request,
   the reply carrying the grant and the release at commit, with the
   attempt's begin and commit around them. 286 words with the request,
   reply and release path written in each protocol, 279 with it written
   once in [Exec], 155 once a message costs no closure, tuple or wait and
   a spawn no handler, 137 once the request carries its one-shot wait
   instead of reply and resume closures. *)
let test_psl_remote_read () =
  let c = two_site_cluster Params.default in
  let psl = Repdb.Psl.create c in
  within_on_5_1 "PSL remote read round trip" ~budget:157.55
    (submits c (Repdb.Psl.submit psl) remote_read)

(* The same read under a 1000 ms deadline, as in a workload with
   deadlines on: the request also arms a timer, which fires long after the
   grant and loses. 164 words with a deadline tuple and the timer closing
   over a resume closure, 146 with the timer firing the wait itself. *)
let test_psl_remote_read_deadline () =
  let c = two_site_cluster { Params.default with txn_deadline = 1000.0 } in
  let psl = Repdb.Psl.create c in
  within_on_5_1 "PSL remote read, finite deadline" ~budget:168.0
    (submits c (Repdb.Psl.submit psl) remote_read)

(* An eager transaction whose one operation writes an item replicated at
   the other site: the local lock, the remote [Lock], the [Prepare] round
   and the commit decide. 248 words with a closure building each request
   and a resume closure per wait, 235 with the requests carrying their
   waits. *)
let test_eager_remote_write () =
  let c = two_site_cluster Params.default in
  let eager = Repdb.Eager.create c in
  within_on_5_1 "eager remote write round trip" ~budget:270.25
    (submits c (Repdb.Eager.submit eager)
       { Repdb_txn.Txn.origin = 0; ops = [ Repdb_txn.Txn.Write 0 ] })

let () =
  Alcotest.run "alloc"
    [
      ( "budget",
        [
          Alcotest.test_case "generator" `Quick test_gen_with;
          Alcotest.test_case "lock acquire + release" `Quick test_acquire_release;
          Alcotest.test_case "txn writes" `Quick test_txn_writes;
          Alcotest.test_case "local replicas" `Quick test_local_replicas;
          Alcotest.test_case "fan out" `Quick test_fan_out;
          Alcotest.test_case "store read" `Quick test_store_read;
          Alcotest.test_case "store apply" `Quick test_store_apply;
          Alcotest.test_case "span cycle" `Quick test_span_cycle;
          Alcotest.test_case "trace record" `Quick test_trace_record;
          Alcotest.test_case "certify" `Quick test_certify;
          Alcotest.test_case "mvstore append" `Quick test_mvstore_append;
          Alcotest.test_case "mvstore read_at" `Quick test_mvstore_read_at;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "history record" `Quick test_history_record;
          Alcotest.test_case "history record, versioned" `Quick test_history_record_versioned;
          Alcotest.test_case "history discard" `Quick test_history_discard;
          Alcotest.test_case "serializability check" `Quick test_check;
          Alcotest.test_case "sim delay" `Quick test_sim_delay;
          Alcotest.test_case "spawn" `Quick test_spawn;
          Alcotest.test_case "contended resource use" `Quick test_resource_use;
          Alcotest.test_case "park + wake" `Quick test_park_wake;
          Alcotest.test_case "lock wait" `Quick test_lock_wait;
          Alcotest.test_case "request/reply round trip" `Quick test_request_reply;
          Alcotest.test_case "mailbox recv" `Quick test_mailbox_recv;
          Alcotest.test_case "network serve" `Quick test_network_serve;
          Alcotest.test_case "condvar await_timeout" `Quick test_condvar_await_timeout;
          Alcotest.test_case "notify (no site)" `Quick test_notify_empty;
          Alcotest.test_case "psl remote read" `Quick test_psl_remote_read;
          Alcotest.test_case "psl remote read, finite deadline" `Quick
            test_psl_remote_read_deadline;
          Alcotest.test_case "eager remote write" `Quick test_eager_remote_write;
        ] );
    ]
