module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Condvar = Repdb_sim.Condvar
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Wal = Repdb_store.Wal
module Fault = Repdb_fault.Fault
module Placement = Repdb_workload.Placement
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats

let site_up (c : Cluster.t) site =
  match c.faults with None -> true | Some f -> f.site_up.(site)

let await_site_up (c : Cluster.t) site =
  match c.faults with
  | None -> ()
  | Some f ->
      while not f.site_up.(site) do
        Condvar.await f.up_cv.(site)
      done

let crash_site (c : Cluster.t) (f : Cluster.faults) ~site =
  f.site_up.(site) <- false;
  f.crashes <- f.crashes + 1;
  Metrics.emit c.metrics (Event.Site_crash { site })

let recover_site (c : Cluster.t) (f : Cluster.faults) ~site ~downtime =
  let wal = f.wals.(site) in
  let lost = c.stores.(site) in
  let recovered = Wal.recover wal ~site in
  (* The redo log hooks every committed write, so the rebuild must reproduce
     the pre-crash image exactly; a mismatch means durability is broken and
     any run that continued from it would be meaningless. The one exception:
     copies scrambled by a corrupt@ clause, which bypasses the log — there
     the rebuild holds the true value, so recovery doubles as repair and the
     mark is cleared. *)
  let rec_contents = Store.contents recovered and lost_contents = Store.contents lost in
  let recovery_ok =
    List.compare_lengths rec_contents lost_contents = 0
    && List.for_all2
      (fun (ri, rv) (li, lv) ->
        ri = li
        && (Value.equal rv lv
            ||
            if Hashtbl.mem f.corrupted (site, ri) then begin
              Hashtbl.remove f.corrupted (site, ri);
              true
            end
            else false))
         rec_contents lost_contents
  in
  if not recovery_ok then
    failwith (Printf.sprintf "Fault_exec: recovery of site %d diverged from its redo log" site);
  c.stores.(site) <- recovered;
  Wal.reattach wal recovered;
  f.site_up.(site) <- true;
  Metrics.emit c.metrics (Event.Site_recover { site; downtime });
  Condvar.broadcast f.up_cv.(site)

(* Silently scramble replica copies at [site]: each non-primary copy is
   overwritten with probability [prob] via [Store.restore], which bypasses
   the redo-log hook — the damage is invisible to WAL recovery and only the
   anti-entropy digests can find it. Primary copies are never touched (they
   are the repair source of truth). The RNG is derived from the seed and the
   clause index alone, so corruption is independent of workload progress. *)
let corrupt_site (c : Cluster.t) (f : Cluster.faults) ~site ~prob ~clause =
  let rng = Rng.create ((c.params.seed * 131071) + (clause * 7919) + 17) in
  let store = c.stores.(site) in
  let n = ref 0 in
  Array.iter
    (fun item ->
      if c.placement.Placement.primary.(item) <> site && Rng.float rng < prob then begin
        let v = Store.read store item in
        Store.restore store item
          (Value.write ~writer:(-2) ~payload:(Printf.sprintf "corrupt.%d" clause) v);
        Hashtbl.replace f.corrupted (site, item) ();
        incr n
      end)
    (Placement.placed_at c.placement site);
  (match f.corrupt_ctr with Some ctr when !n > 0 -> Stats.add ctr ~site !n | _ -> ());
  f.corruption_events <- f.corruption_events + 1;
  Metrics.emit c.metrics (Event.Corrupt { site; items = !n })

let clear_corrupt (c : Cluster.t) ~site ~item =
  match c.faults with None -> () | Some f -> Hashtbl.remove f.corrupted (site, item)

let schedule (c : Cluster.t) =
  match (c.injector, c.faults) with
  | Some inj, Some f ->
      List.iter
        (fun (cr : Fault.crash) ->
          Sim.at c.sim cr.at (fun () -> crash_site c f ~site:cr.site);
          Sim.at c.sim (cr.at +. cr.down_for) (fun () ->
              recover_site c f ~site:cr.site ~downtime:cr.down_for))
        (Fault.schedule inj).crashes;
      List.iteri
        (fun clause (co : Fault.corruption) ->
          Sim.at c.sim co.c_at (fun () ->
              if f.site_up.(co.c_site) then
                corrupt_site c f ~site:co.c_site ~prob:co.c_prob ~clause))
        (Fault.schedule inj).corruptions;
      (* Partitions need no link-level action here — the injector's transmit
         plans already park cross-cut messages — but the begin/heal instants
         are counted and traced. *)
      List.iter
        (fun (p : Fault.partition) ->
          let groups = Fault.string_of_groups p.groups in
          Sim.at c.sim p.from_t (fun () ->
              f.partitions <- f.partitions + 1;
              Metrics.emit c.metrics (Event.Partition_begin { groups }));
          Sim.at c.sim p.until_t (fun () ->
              Metrics.emit c.metrics (Event.Partition_heal { groups })))
        (Fault.schedule inj).partitions
  | _ -> ()

let crashes (c : Cluster.t) = match c.faults with None -> 0 | Some f -> f.crashes
let partitions (c : Cluster.t) = match c.faults with None -> 0 | Some f -> f.partitions

let corruption (c : Cluster.t) =
  match c.faults with
  | None -> (0, 0)
  | Some f ->
      (f.corruption_events, match f.corrupt_ctr with Some ctr -> Stats.counter_total ctr | None -> 0)
