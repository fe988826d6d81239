(* The benchmark's workloads.

   A workload is a list of protocols run on [slots] fixed scenarios. A
   scenario is what stays the same from run to run: the placement, the fault
   schedule and the reconfiguration plan, all drawn from the scenario seed
   [scenario_base + slot]. The benchmark's --seed S only drives the
   transaction streams, retry jitter and link-loss draws: slot i runs on
   stream seed S + i. Drawing the placement and faults from S as well made
   run-to-run spreads of the simulated metrics wider than any usable
   regression bound (a placement alone moves BackEdge's mean propagation
   delay by 50-70%), so the scenarios are pinned and the traffic varies.

   Clients are the paper's closed loop: [threads_per_site] simulated threads
   per site, each submitting its next transaction when the previous one
   finishes. A job is one protocol on one slot; slot 0 is the base slot
   whose jobs the per-layer trace replays. *)

module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Rng = Repdb_sim.Rng
module Fault = Repdb_fault.Fault
module Reconfig = Repdb_reconfig.Reconfig

type job = {
  protocol : string;
  slot : int;
  scenario_seed : int;
  params : Params.t;  (** [seed] is the stream seed. *)
}

type t = {
  name : string;
  slots : int;
  jobs : scenario_seed:int -> (string * Params.t) list;
      (** Protocol and parameters (scenario applied) for one slot. *)
}

let scenario_base = 42
let d = Params.default

(* Table 1 defaults with r = 0.5 and no read-only transactions: the Fig. 3
   write-heavy point, where every commit fans out secondary subtransactions. *)
let paper_lazy =
  let p = { d with replication_prob = 0.5; read_txn_prob = 0.0 } in
  {
    name = "paper-lazy";
    slots = 5;
    jobs =
      (fun ~scenario_seed:_ ->
        [
          ("dag-wt", { p with backedge_prob = 0.0 });
          ("dag-t", { p with backedge_prob = 0.0 });
          ("backedge", { p with backedge_prob = 0.2 });
        ]);
  }

(* Zipf-skewed access on the default copy graph with b = 0. The ssi and
   occ-epoch jobs take no locks: a lock-layer change must leave them flat. *)
let hot_contention =
  let p = { d with backedge_prob = 0.0; zipf_theta = 0.9 } in
  {
    name = "hot-contention";
    slots = 5;
    jobs = (fun ~scenario_seed:_ -> [ ("psl", p); ("backedge", p); ("ssi", p); ("occ-epoch", p) ]);
  }

(* 64 sites x 20k items, read-mostly: the working set (~44 MB of heap)
   exceeds CPU caches while the other workloads fit, and placement plus
   routing make set-up non-trivial. PSL's remote reads make it the heaviest
   network-send workload. *)
let wide_read =
  let p =
    {
      d with
      n_sites = 64;
      n_items = 20_000;
      site_prob = 6.0 /. 64.0;
      replication_prob = 0.5;
      threads_per_site = 1;
      n_machines = 8;
      read_txn_prob = 0.9;
      read_op_prob = 0.9;
    }
  in
  {
    name = "wide-read";
    slots = 2;
    jobs = (fun ~scenario_seed:_ -> [ ("backedge", { p with backedge_prob = 0.2 }); ("psl", p) ]);
  }

(* Table 1 defaults with healing, a 400 ms deadline and backoff retry, under
   4 synthetic crashes, a 1500-2000 ms partition and replica corruption at
   site 2. BackEdge and PSL also run a 4-step reconfiguration plan.

   Two library bugs shape it. BackEdge with retries livelocks in
   global-deadlock aborts once its copy graph has backedges under healing
   (runs last 130-160 s of simulated time instead of ~5 s): at b = 0.2 on
   5-25% of streams, and at b = 0 on 1-4% of jobs after a failover promotes
   primaries backwards. So every job runs at b = 0, and BackEdge keeps
   healing (heartbeats, anti-entropy repair) with failover disabled by an
   unreachable suspicion threshold; PSL and DAG(WT) still fail over. DAG(WT)
   gets no plan: with healing plus a plan it can raise "reconfiguration made
   the copy graph cyclic". *)
let chaos =
  let p =
    {
      d with
      backedge_prob = 0.0;
      heal = true;
      txn_deadline = 400.0;
      retry = Params.default_backoff;
    }
  in
  let faults ~scenario_seed =
    let f = Fault.synthetic ~n_sites:p.n_sites ~seed:scenario_seed ~n_crashes:4 () in
    {
      f with
      Fault.partitions = [ { from_t = 1500.0; until_t = 2000.0; groups = [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7; 8 ] ] } ];
      corruptions = [ { c_site = 2; c_at = 600.0; c_prob = 0.3 } ];
    }
  in
  {
    name = "chaos";
    slots = 5;
    jobs =
      (fun ~scenario_seed ->
        let p = { p with faults = faults ~scenario_seed } in
        let plan =
          Reconfig.synthetic ~n_sites:p.n_sites ~n_items:p.n_items ~seed:scenario_seed ~n_steps:4 ()
        in
        [
          ("backedge", { p with reconfig = plan; phi_threshold = 1e6 });
          ("psl", { p with reconfig = plan });
          ("dag-wt", p);
        ]);
  }

let all = [ paper_lazy; hot_contention; wide_read; chaos ]
let find name = List.find_opt (fun w -> w.name = name) all

(* [txns] overrides the transactions per client thread (the quick self-test
   uses 20); [slots] the number of scenario slots. *)
let jobs ?txns ?slots w ~seed =
  let slots = Option.value slots ~default:w.slots in
  List.concat
    (List.init slots (fun slot ->
         let scenario_seed = scenario_base + slot in
         List.map
           (fun (protocol, (p : Params.t)) ->
             let p = { p with seed = seed + slot } in
             let p = match txns with Some n -> { p with txns_per_thread = n } | None -> p in
             { protocol; slot; scenario_seed; params = p })
           (w.jobs ~scenario_seed)))

let placement j = Placement.generate (Rng.create j.scenario_seed) j.params

let protocol j =
  match Repdb.Registry.find j.protocol with
  | Some p -> p
  | None -> invalid_arg ("unknown protocol " ^ j.protocol)
