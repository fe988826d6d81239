module Sim = Repdb_sim.Sim
module Tree = Repdb_graph.Tree
module Network = Repdb_net.Network
module Placement = Repdb_workload.Placement

(* --- subtree-replica bitmaps --------------------------------------------- *)

(* Per-site replica bitmaps over items, packed as bytes: m * ceil(n/8) bytes
   total, and the bottom-up union runs 64 items per instruction. *)
type subtree_map = { bits : Bytes.t array }

let bit_get b item =
  Char.code (Bytes.unsafe_get b (item lsr 3)) land (1 lsl (item land 7)) <> 0

let bit_set b item =
  let i = item lsr 3 in
  Bytes.unsafe_set b i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor (1 lsl (item land 7))))

let union_into ~dst ~src =
  let len = Bytes.length dst in
  let i = ref 0 in
  while !i + 8 <= len do
    Bytes.set_int64_ne dst !i (Int64.logor (Bytes.get_int64_ne dst !i) (Bytes.get_int64_ne src !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.unsafe_set dst !i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst !i) lor Char.code (Bytes.unsafe_get src !i)));
    incr i
  done

let subtree_replicas (placement : Placement.t) tree =
  let nb = (placement.n_items + 7) lsr 3 in
  let bits = Array.init placement.n_sites (fun _ -> Bytes.make nb '\000') in
  Array.iteri
    (fun item reps -> Array.iter (fun site -> bit_set bits.(site) item) reps)
    placement.replicas;
  let rec fold site =
    List.iter
      (fun child ->
        fold child;
        union_into ~dst:bits.(site) ~src:bits.(child))
      (Tree.children tree site)
  in
  List.iter fold (Tree.roots tree);
  { bits }

let in_subtree maps ~site item = bit_get maps.bits.(site) item

let rec any_set b = function [] -> false | item :: rest -> bit_get b item || any_set b rest

(* Recursions on top-level functions rather than [List.filter]/[List.exists]
   closures; the children list itself comes back when none is filtered. *)
let rec relevant maps writes = function
  | [] -> []
  | child :: rest as children ->
      let rest' = relevant maps writes rest in
      if not (any_set maps.bits.(child) writes) then rest'
      else if rest' == rest then children
      else child :: rest'

let relevant_children maps tree site writes = relevant maps writes (Tree.children tree site)

(* --- the channel ---------------------------------------------------------- *)

type 'x msg =
  | Update of { gid : int; writes : int list; origin_commit : float; epoch : int }
  | Extra of { epoch : int; x : 'x }

type 'x t = {
  c : Cluster.t;
  net : 'x msg Network.t;
  mutable tr : Tree.t;
  mutable in_subtree : subtree_map;
}

let create (c : Cluster.t) ~describe tr =
  let net =
    Cluster.make_net c ~describe:(function
      | Update { writes; _ } -> ("secondary", 24 + (8 * List.length writes))
      | Extra { x; _ } -> describe x)
  in
  { c; net; tr; in_subtree = subtree_replicas c.placement tr }

let tree ch = ch.tr

let retree ch tr =
  ch.tr <- tr;
  ch.in_subtree <- subtree_replicas ch.c.placement tr

(* Each send takes an outstanding token, so in-flight messages hold the
   quiescence/drain machinery open until they are processed. *)
let send ch ~src ~dst msg =
  Cluster.inc_outstanding ch.c;
  Network.send ch.net ~src ~dst msg

let send_extra ch ~src ~dst x = send ch ~src ~dst (Extra { epoch = Epoch.current ch.c; x })

(* Non-blocking, so it can sit inside an atomic commit section. Returns the
   number of children sent to. *)
let forward_msg ch site msg writes =
  let children = relevant_children ch.in_subtree ch.tr site writes in
  Exec.notify ch.c ch.net ~src:site children msg;
  List.length children

let forward ch ~site ~gid writes =
  if writes = [] then 0
  else
    let c = ch.c in
    forward_msg ch site
      (Update { gid; writes; origin_commit = Sim.now c.sim; epoch = Epoch.current c })
      writes

let receive ch ~on_retry ~on_extra site msg =
  let c = ch.c in
  (* Epoch fence: the operator coordinator drains all in-flight propagation
     before it switches routing, so a later epoch cannot surface here — but a
     healer failover drains weakly, and a message parked behind the outage
     can deliver after the switch. Such messages are dropped with accounting;
     anti-entropy repairs whatever they carried. *)
  let epoch = match msg with Update { epoch; _ } | Extra { epoch; _ } -> epoch in
  if Epoch.stale c ~site ~epoch then Cluster.dec_outstanding c
  else begin
    Cluster.use_cpu c site c.params.cpu_msg;
    match msg with
    | Update { gid; writes; origin_commit; _ } ->
        let items = Placement.local_replicas c.placement site writes in
        Exec.apply_secondary ?on_retry c ~gid ~site ~origin_commit items;
        (* A message that passed the fence carries the current epoch, so it
           is forwarded unchanged. *)
        let sent = forward_msg ch site msg writes in
        Cluster.dec_outstanding c;
        if sent > 0 then Cluster.use_cpu c site (float_of_int sent *. c.params.cpu_msg)
    | Extra { x; _ } ->
        on_extra site x;
        Cluster.dec_outstanding c
  end

(* A reconfiguration — operator-planned or a healer failover — can give any
   site a tree parent later, so under either every site gets an applier
   (idle at roots); without one, spawn exactly at the sites with a parent —
   spawn counts feed the event tie-break order, and static runs must stay
   byte-identical. Dequeue order = receive order (the FIFO the protocols'
   correctness rests on); the trace records it so tests can assert commit
   order, and the sampled queue depth is what the dequeue left behind. *)
let spawn_applier ?on_retry ch ~on_extra site =
  if Epoch.planned ch.c || Tree.parent ch.tr site <> -1 then begin
    Network.serve ch.net site (fun ~src:_ msg ->
        (match msg with
        | Update { gid; _ } ->
            Metrics.secondary_recv ch.c.metrics ~gid ~site;
            Metrics.queue_depth ch.c.metrics ~site ~queue:"fifo" ~depth:(Network.queued ch.net site)
        | Extra _ -> ());
        receive ch ~on_retry ~on_extra site msg)
  end
