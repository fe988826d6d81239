type retry_policy =
  | No_retry
  | Backoff of { base : float; multiplier : float; cap : float; max_retries : int }

let default_backoff =
  Backoff { base = 1.0; multiplier = 2.0; cap = 64.0; max_retries = 1_000 }

let string_of_retry = function
  | No_retry -> "off"
  | Backoff { base; multiplier; cap; max_retries } ->
      Printf.sprintf "backoff(base=%g,x%g,cap=%g,max=%d)" base multiplier cap max_retries

type t = {
  n_sites : int;
  n_items : int;
  replication_prob : float;
  site_prob : float;
  backedge_prob : float;
  ops_per_txn : int;
  threads_per_site : int;
  txns_per_thread : int;
  read_op_prob : float;
  read_txn_prob : float;
  hot_access_prob : float;
  zipf_theta : float;
  latency : float;
  lock_timeout : float;
  deadlock_policy : [ `Timeout | `Detect ];
  n_machines : int;
  straggler_machine : int;
  straggler_factor : float;
  cpu_op : float;
  cpu_commit : float;
  cpu_msg : float;
  seed : int;
  retry : retry_policy;
  txn_deadline : float;
  stale_reads : float;
  record_history : bool;
  epoch_period : float;
  dummy_idle : float;
  faults : Repdb_fault.Fault.schedule;
  reconfig : Repdb_reconfig.Reconfig.plan;
  timeline_every : float;
  occ_epoch_ms : float;
  heal : bool;
  phi_threshold : float;
}

let default =
  {
    n_sites = 9;
    n_items = 200;
    replication_prob = 0.2;
    site_prob = 0.5;
    backedge_prob = 0.2;
    ops_per_txn = 10;
    threads_per_site = 3;
    txns_per_thread = 300;
    read_op_prob = 0.7;
    read_txn_prob = 0.5;
    hot_access_prob = 0.0;
    zipf_theta = 0.0;
    latency = 0.15;
    lock_timeout = 50.0;
    deadlock_policy = `Timeout;
    n_machines = 3;
    straggler_machine = -1;
    straggler_factor = 1.0;
    cpu_op = 0.05;
    cpu_commit = 0.1;
    cpu_msg = 0.5;
    seed = 42;
    retry = No_retry;
    txn_deadline = 0.0;
    stale_reads = 0.0;
    record_history = false;
    epoch_period = 100.0;
    dummy_idle = 50.0;
    faults = Repdb_fault.Fault.empty;
    reconfig = Repdb_reconfig.Reconfig.empty;
    timeline_every = 0.0;
    occ_epoch_ms = 10.0;
    heal = false;
    phi_threshold = 8.0;
  }

let table1 t =
  [
    ("Number of Sites", "m", string_of_int t.n_sites, "3 - 15");
    ("Number of Items", "n", string_of_int t.n_items, "");
    ("Replication Probability", "r", Printf.sprintf "%g" t.replication_prob, "0 - 1");
    ("Site Probability", "s", Printf.sprintf "%g" t.site_prob, "");
    ("Backedge Probability", "b", Printf.sprintf "%g" t.backedge_prob, "0 - 1");
    ("Operations/Transaction", "", string_of_int t.ops_per_txn, "");
    ("Threads/Site", "", string_of_int t.threads_per_site, "1 - 5");
    ("Transactions/Thread", "", string_of_int t.txns_per_thread, "");
    ("Read Operation Probability", "", Printf.sprintf "%g" t.read_op_prob, "0 - 1");
    ("Read Transaction Probability", "", Printf.sprintf "%g" t.read_txn_prob, "0 - 1");
    ("Network Latency", "", Printf.sprintf "Approx %g millisec" t.latency, "0.15 - 100 millisec");
    ("Deadlock Timeout Interval", "", Printf.sprintf "%g millisec" t.lock_timeout, "");
  ]

let pp ppf t =
  Fmt.pf ppf
    "@[<v>m=%d n=%d r=%g s=%g b=%g ops=%d threads=%d txns=%d read_op=%g read_txn=%g@ \
     latency=%gms timeout=%gms machines=%d cpu(op=%g commit=%g msg=%g) seed=%d retry=%s@ \
     deadline=%gms stale_reads=%gms zipf=%g occ_epoch=%gms heal=%s faults=%a@ \
     reconfig=%a@]"
    t.n_sites t.n_items t.replication_prob t.site_prob t.backedge_prob t.ops_per_txn
    t.threads_per_site t.txns_per_thread t.read_op_prob t.read_txn_prob t.latency
    t.lock_timeout t.n_machines t.cpu_op t.cpu_commit t.cpu_msg t.seed
    (string_of_retry t.retry) t.txn_deadline t.stale_reads t.zipf_theta t.occ_epoch_ms
    (if t.heal then Printf.sprintf "on(phi=%g)" t.phi_threshold else "off")
    Repdb_fault.Fault.pp t.faults Repdb_reconfig.Reconfig.pp t.reconfig

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg ("Params: " ^^ fmt) in
  let positive name v = if v <= 0 then fail "%s=%d must be positive" name v in
  (* Every float check is written so that NaN fails it. *)
  let finite name v = if not (Float.is_finite v) then fail "%s=%g must be finite" name v in
  let prob name v = if not (v >= 0.0 && v <= 1.0) then fail "%s=%g not in [0,1]" name v in
  let nonneg name v =
    finite name v;
    if v < 0.0 then fail "%s=%g must be >= 0" name v
  in
  let pos name v =
    finite name v;
    if v <= 0.0 then fail "%s=%g must be > 0" name v
  in
  positive "n_sites" t.n_sites;
  positive "n_items" t.n_items;
  positive "ops_per_txn" t.ops_per_txn;
  positive "threads_per_site" t.threads_per_site;
  positive "txns_per_thread" t.txns_per_thread;
  positive "n_machines" t.n_machines;
  prob "replication_prob" t.replication_prob;
  prob "site_prob" t.site_prob;
  prob "backedge_prob" t.backedge_prob;
  prob "read_op_prob" t.read_op_prob;
  prob "read_txn_prob" t.read_txn_prob;
  prob "hot_access_prob" t.hot_access_prob;
  if not (t.zipf_theta >= 0.0 && t.zipf_theta < 1.0) then
    fail "zipf_theta=%g not in [0,1)" t.zipf_theta;
  finite "straggler_factor" t.straggler_factor;
  if not (t.straggler_factor >= 1.0) then fail "straggler_factor must be >= 1";
  if t.straggler_machine >= t.n_machines then fail "straggler_machine out of range";
  nonneg "latency" t.latency;
  pos "lock_timeout" t.lock_timeout;
  nonneg "cpu_op" t.cpu_op;
  nonneg "cpu_commit" t.cpu_commit;
  nonneg "cpu_msg" t.cpu_msg;
  nonneg "txn_deadline" t.txn_deadline;
  nonneg "stale_reads" t.stale_reads;
  (match t.retry with
  | No_retry -> ()
  | Backoff { base; multiplier; cap; max_retries } ->
      pos "backoff base" base;
      finite "backoff multiplier" multiplier;
      if not (multiplier >= 1.0) then fail "backoff multiplier must be >= 1";
      finite "backoff cap" cap;
      if not (cap >= base) then fail "backoff cap must be >= base";
      if max_retries < 0 then fail "backoff max_retries must be >= 0");
  nonneg "timeline_every" t.timeline_every;
  pos "epoch_period" t.epoch_period;
  pos "dummy_idle" t.dummy_idle;
  pos "occ_epoch_ms" t.occ_epoch_ms;
  pos "phi_threshold" t.phi_threshold;
  if t.heal && t.n_sites < 2 then fail "heal needs at least two sites";
  if t.faults.corruptions <> [] && not t.heal then
    fail "corrupt@ fault clauses need --heal (only anti-entropy can see them)";
  Repdb_fault.Fault.validate ~n_sites:t.n_sites t.faults;
  Repdb_reconfig.Reconfig.validate ~n_sites:t.n_sites ~n_items:t.n_items t.reconfig
