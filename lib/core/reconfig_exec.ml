module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Condvar = Repdb_sim.Condvar
module Network = Repdb_net.Network
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Placement = Repdb_workload.Placement
module Reconfig = Repdb_reconfig.Reconfig
module Stats = Repdb_obs.Stats

type xfer = { item : int; value : Value.t }

let describe_xfer (_ : xfer) = ("state-transfer", 24)

(* New (item, site) replica pairs introduced by [np], ascending — the values
   that must be shipped before routing can switch. *)
let additions (old_pl : Placement.t) (np : Placement.t) =
  let acc = ref [] in
  for item = np.n_items - 1 downto 0 do
    (* Untouched rows are shared by the incremental [Placement.apply_step],
       so physical equality skips the per-site membership checks wholesale. *)
    if np.replicas.(item) != old_pl.replicas.(item) then
      Array.iter
        (fun site ->
          if not (Placement.has_replica old_pl ~site item) then acc := (item, site) :: !acc)
        np.replicas.(item)
  done;
  !acc

(* One reconfiguration step, live:
   quiesce -> state transfer -> quiesce -> atomic switch -> resume. *)
let execute_step (c : Cluster.t) net ~reconfigure ~gen (ts : Reconfig.timed) =
  let t0 = Sim.now c.sim in
  Cluster.trace_reconfig_begin c ~epoch:c.config_epoch;
  (* Stall clients at the barrier and wait until no transaction attempt is
     executing and no propagation is in flight: the old epoch is fully
     applied everywhere it will ever be. [acquire_switch] also serializes
     against a healer failover in progress. *)
  Cluster.acquire_switch c;
  let np = Placement.apply_step c.placement ts.step in
  (* Bulk-copy current primary values to newly added replicas. The transfer
     rides the typed network (latency, CPU, fault injection), and each
     install is counted outstanding until applied, so the second drain
     below waits for the last install — even one delayed by a crashed
     destination, since acked links deliver it after the restart. *)
  List.iter
    (fun (item, dst) ->
      let src = np.primary.(item) in
      Cluster.inc_outstanding c;
      Network.send net ~src ~dst { item; value = Store.read c.stores.(src) item };
      Cluster.use_cpu c src c.params.cpu_msg)
    (additions c.placement np);
  Cluster.await_drained c;
  Cluster.switch_epoch c np ~reconfigure ~gen;
  c.reconfigs <- c.reconfigs + 1;
  let switch = Sim.now c.sim -. t0 in
  (match c.switch_hist with Some h -> Stats.observe h ~site:0 switch | None -> ());
  Cluster.trace_reconfig_switch c ~epoch:c.config_epoch ~duration:switch;
  Cluster.release_switch c;
  Cluster.trace_reconfig_done c ~epoch:c.config_epoch ~duration:(Sim.now c.sim -. t0)

let receive_server c net site =
  let inbox = Network.inbox net site in
  let rec loop () =
    let src, (x : xfer) = Mailbox.recv inbox in
    Cluster.use_cpu c site c.params.cpu_msg;
    Store.install c.stores.(site) x.item x.value;
    c.state_transfers <- c.state_transfers + 1;
    Cluster.trace_state_transfer c ~item:x.item ~src ~dst:site;
    Cluster.dec_outstanding c;
    loop ()
  in
  loop ()

let schedule (c : Cluster.t) ~reconfigure ~gen =
  let plan = c.params.reconfig in
  if not (Reconfig.is_empty plan) then begin
    let net = Cluster.make_net c ~describe:describe_xfer in
    let cat = Cluster.profile_cat c "reconfig" in
    for site = 0 to c.params.n_sites - 1 do
      Sim.spawn ~cat c.sim (fun () -> receive_server c net site)
    done;
    Sim.spawn ~cat c.sim (fun () ->
        List.iter
          (fun (ts : Reconfig.timed) ->
            let now = Sim.now c.sim in
            if ts.at > now then Sim.delay (ts.at -. now);
            execute_step c net ~reconfigure ~gen ts)
          plan.steps)
  end
