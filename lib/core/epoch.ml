module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Condvar = Repdb_sim.Condvar
module Network = Repdb_net.Network
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Fault = Repdb_fault.Fault
module Placement = Repdb_workload.Placement
module Generator = Repdb_workload.Generator
module Reconfig = Repdb_reconfig.Reconfig
module Stats = Repdb_obs.Stats
module Event = Repdb_obs.Event

type drain = Strong | Weak
type xfer = { item : int; value : Value.t }

type t = {
  c : Cluster.t;
  net : xfer Network.t option;
      (* State-transfer network, built only under an operator plan: a
         failover only renames primaries among existing copies, so it never
         ships anything. *)
  reconfigure : unit -> unit;
  gen : Generator.t;
}

let describe_xfer (_ : xfer) = ("state-transfer", 24)

(* --- read side ------------------------------------------------------------ *)

let current (c : Cluster.t) = c.epoch.config_epoch
let switching (c : Cluster.t) = c.epoch.reconfiguring
let planned (c : Cluster.t) = (not (Reconfig.is_empty c.params.reconfig)) || c.params.heal
let totals (c : Cluster.t) = (c.epoch.reconfigs, c.epoch.state_transfers, c.epoch.stall_total)

let barrier (c : Cluster.t) ~site =
  let e = c.epoch in
  if e.reconfiguring then begin
    let t0 = Sim.now c.sim in
    while e.reconfiguring do
      Condvar.await e.resume
    done;
    let stall = Sim.now c.sim -. t0 in
    e.stall_total <- e.stall_total +. stall;
    match e.stall_hist with Some h -> Stats.observe h ~site stall | None -> ()
  end

let stale (c : Cluster.t) ~site ~epoch =
  if epoch = c.epoch.config_epoch then false
  else begin
    (match c.epoch.stale_drop_ctr with
    | Some ctr -> Stats.incr ctr ~site
    | None ->
        failwith (Printf.sprintf "Epoch: stale epoch %d at site %d without healing" epoch site));
    true
  end

(* --- drains ---------------------------------------------------------------- *)

(* In-flight messages the weak drain ignores: traffic on a pair with a down
   endpoint or an active partition between them, which the acked links park
   for the whole outage. *)
let parked_outstanding (c : Cluster.t) =
  let pred ~src ~dst =
    (not (Cluster.site_up c src)) || (not (Cluster.site_up c dst))
    ||
    match c.injector with
    | Some inj -> not (Fault.reachable inj ~src ~dst ~at:(Sim.now c.sim))
    | None -> false
  in
  List.fold_left (fun acc f -> acc + f pred) 0 c.inflight_fns

(* Clients are already stalled at the barrier; attempts in progress finish
   bounded by their own timeouts — which is why healing a blocking protocol
   (PSL) requires a transaction deadline. The weak drain re-checks after a
   settle delay so traffic deliverable at the poll instant actually lands. *)
let drain (c : Cluster.t) = function
  | Strong ->
      while not (c.active_txns = 0 && c.outstanding = 0) do
        Condvar.await c.epoch.drained
      done
  | Weak ->
      let settle = Float.max 1.0 (2.0 *. c.params.latency) in
      let drained () = c.active_txns = 0 && c.outstanding - parked_outstanding c <= 0 in
      let rec go () =
        let was = drained () in
        Sim.delay settle;
        if not (was && drained ()) then go ()
      in
      go ()

(* --- the switch ------------------------------------------------------------ *)

(* (item, site) copies [np] holds that [old_pl] does not, ascending — the
   values to ship before routing can switch. Untouched rows are shared by
   the incremental [Placement.apply_step], so physical equality skips their
   membership checks wholesale. *)
let additions (old_pl : Placement.t) (np : Placement.t) =
  let acc = ref [] in
  for item = np.n_items - 1 downto 0 do
    if np.replicas.(item) != old_pl.replicas.(item) then
      Array.iter
        (fun site -> if not (Placement.has_copy old_pl ~site item) then acc := (item, site) :: !acc)
        np.replicas.(item)
  done;
  !acc

let switch t kind ?(admit = fun () -> true) next =
  let c = t.c and e = t.c.epoch in
  (* Whichever coordinator arrives second — operator plan or healer — waits
     for the first one's resume broadcast. *)
  while e.reconfiguring do
    Condvar.await e.resume
  done;
  e.reconfiguring <- true;
  let admitted = admit () in
  if admitted then begin
    drain c kind;
    match next c.placement with
    | None -> ()
    | Some np ->
        let shipped = additions c.placement np in
        List.iter
          (fun (item, dst) ->
            let src = np.primary.(item) in
            Cluster.inc_outstanding c;
            Network.send (Option.get t.net) ~src ~dst
              { item; value = Store.read c.stores.(src) item };
            Cluster.use_cpu c src c.params.cpu_msg)
          shipped;
        if shipped <> [] then drain c kind;
        (* No process can run between these assignments: the simulator only
           interleaves at blocking points. *)
        c.placement <- np;
        t.reconfigure ();
        Generator.refresh t.gen np;
        e.config_epoch <- e.config_epoch + 1
  end;
  e.reconfiguring <- false;
  Condvar.broadcast e.resume;
  admitted

(* --- the operator plan ----------------------------------------------------- *)

let receive_server t site =
  let c = t.c in
  let inbox = Network.inbox (Option.get t.net) site in
  let rec loop () =
    let src, (x : xfer) = Mailbox.recv inbox in
    Cluster.use_cpu c site c.params.cpu_msg;
    Store.install c.stores.(site) x.item x.value;
    c.epoch.state_transfers <- c.epoch.state_transfers + 1;
    Metrics.emit c.metrics (Event.State_transfer { item = x.item; src; dst = site });
    Cluster.dec_outstanding c;
    loop ()
  in
  loop ()

let execute_step t (ts : Reconfig.timed) =
  let c = t.c and e = t.c.epoch in
  let t0 = Sim.now c.sim in
  Metrics.emit c.metrics (Event.Reconfig_begin { epoch = e.config_epoch });
  ignore (switch t Strong (fun pl -> Some (Placement.apply_step pl ts.step)));
  e.reconfigs <- e.reconfigs + 1;
  let duration = Sim.now c.sim -. t0 in
  (match e.switch_hist with Some h -> Stats.observe h ~site:0 duration | None -> ());
  Metrics.emit c.metrics (Event.Reconfig_switch { epoch = e.config_epoch; duration });
  Metrics.emit c.metrics (Event.Reconfig_done { epoch = e.config_epoch; duration })

let schedule (c : Cluster.t) ~reconfigure ~gen =
  let plan = c.params.reconfig in
  if Reconfig.is_empty plan then { c; net = None; reconfigure; gen }
  else begin
    let t = { c; net = Some (Cluster.make_net c ~describe:describe_xfer); reconfigure; gen } in
    let cat = Cluster.profile_cat c "reconfig" in
    for site = 0 to c.params.n_sites - 1 do
      Sim.spawn ~cat c.sim (fun () -> receive_server t site)
    done;
    Sim.spawn ~cat c.sim (fun () ->
        List.iter
          (fun (ts : Reconfig.timed) ->
            let now = Sim.now c.sim in
            if ts.at > now then Sim.delay (ts.at -. now);
            execute_step t ts)
          plan.steps);
    t
  end
