module Rng = Repdb_sim.Rng
module Digraph = Repdb_graph.Digraph
module Reconfig = Repdb_reconfig.Reconfig

type t = {
  n_sites : int;
  n_items : int;
  primary : int array;
  replicas : int array array;
  placed : int array array;
  prims : int array array;
  graph : Digraph.t;
  backedge_list : (int * int) list;
  edge_mult : (int, int) Hashtbl.t;
}

(* Membership in a sorted row. Replica sets are small on realistic
   placements, so a branchless lower-bound search beats both [List.mem] and
   hashing: O(log r) with no allocation. *)
let mem_sorted (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && Array.unsafe_get a !lo = x

let index_sorted (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && Array.unsafe_get a !lo = x then !lo else -1

(* Build everything from per-item sorted replica rows: copy graph with its
   per-edge item multiplicity (the incremental [apply_step] needs to know
   when the last item contributing an edge goes away), backedge memo, and
   the per-site item indices. One pass to size, one pass to fill, so the
   per-site arrays are exact and ascending by construction. *)
let build ~n_sites ~n_items ~primary ~(replicas : int array array) =
  let m = n_sites in
  let graph = Digraph.create m in
  let edge_mult = Hashtbl.create (4 * m) in
  Array.iteri
    (fun item si ->
      Array.iter
        (fun sj ->
          let key = (si * m) + sj in
          match Hashtbl.find_opt edge_mult key with
          | Some c -> Hashtbl.replace edge_mult key (c + 1)
          | None ->
              Hashtbl.replace edge_mult key 1;
              Digraph.add_edge graph si sj)
        replicas.(item))
    primary;
  let backedge_list = List.filter (fun (u, v) -> v < u) (Digraph.edges graph) in
  let n_prim = Array.make m 0 and n_placed = Array.make m 0 in
  for item = 0 to n_items - 1 do
    let p = primary.(item) in
    n_prim.(p) <- n_prim.(p) + 1;
    n_placed.(p) <- n_placed.(p) + 1;
    Array.iter (fun s -> n_placed.(s) <- n_placed.(s) + 1) replicas.(item)
  done;
  let prims = Array.init m (fun s -> Array.make n_prim.(s) 0) in
  let placed = Array.init m (fun s -> Array.make n_placed.(s) 0) in
  let kp = Array.make m 0 and kq = Array.make m 0 in
  for item = 0 to n_items - 1 do
    let p = primary.(item) in
    prims.(p).(kp.(p)) <- item;
    kp.(p) <- kp.(p) + 1;
    placed.(p).(kq.(p)) <- item;
    kq.(p) <- kq.(p) + 1;
    Array.iter
      (fun s ->
        placed.(s).(kq.(s)) <- item;
        kq.(s) <- kq.(s) + 1)
      replicas.(item)
  done;
  { n_sites; n_items; primary; replicas; placed; prims; graph; backedge_list; edge_mult }

let make ~n_sites ~n_items ~primary ~replicas =
  let replicas =
    Array.mapi
      (fun item l ->
        Array.of_list (List.sort_uniq compare (List.filter (fun s -> s <> primary.(item)) l)))
      replicas
  in
  build ~n_sites ~n_items ~primary ~replicas

let generate rng (p : Params.t) =
  Params.validate p;
  let m = p.n_sites and n = p.n_items in
  (* Uniform primary assignment: round-robin gives each site ~n/m primaries. *)
  let primary = Array.init n (fun item -> item mod m) in
  let replicas = Array.make n [] in
  for item = 0 to n - 1 do
    if Rng.bool rng p.replication_prob then begin
      let si = primary.(item) in
      let all_candidates = Rng.bool rng p.backedge_prob in
      let chosen = ref [] in
      for sj = m - 1 downto 0 do
        if sj <> si then begin
          let candidate = all_candidates || sj > si in
          if candidate && Rng.bool rng p.site_prob then chosen := sj :: !chosen
        end
      done;
      replicas.(item) <- !chosen
    end
  done;
  make ~n_sites:m ~n_items:n ~primary ~replicas

let primaries_at t site = t.prims.(site)
let placed_at t site = t.placed.(site)
let has_replica t ~site item = mem_sorted t.replicas.(item) site
let has_copy t ~site item = t.primary.(item) = site || has_replica t ~site item
let is_primary t ~site item = t.primary.(item) = site

let rec replicates_any t ~site = function
  | [] -> false
  | item :: rest -> has_replica t ~site item || replicates_any t ~site rest
let placed_index t ~site item = index_sorted t.placed.(site) item

(* A recursion on the function itself, not [List.filter]: no closure per
   call, and the input list itself when every item is replicated here. *)
let rec local_replicas t site = function
  | [] -> []
  | item :: rest as writes ->
      let rest' = local_replicas t site rest in
      if not (has_replica t ~site item) then rest'
      else if rest' == rest then writes
      else item :: rest'

let copy_graph t = t.graph
let backedges t = t.backedge_list

(* Rebuild one sorted row: [row] minus [drops] plus [adds], all ascending,
   [adds] disjoint from [row], [drops] a subset of it. *)
let merge_row (row : int array) ~adds ~drops =
  let n = Array.length row + List.length adds - List.length drops in
  let out = Array.make (max n 1) 0 in
  let k = ref 0 in
  let adds = ref adds and drops = ref drops in
  let push x =
    out.(!k) <- x;
    incr k
  in
  Array.iter
    (fun x ->
      while (match !adds with a :: _ -> a < x | [] -> false) do
        push (List.hd !adds);
        adds := List.tl !adds
      done;
      match !drops with
      | d :: rest when d = x -> drops := rest
      | _ -> push x)
    row;
  List.iter push !adds;
  assert (!k = n);
  if n = Array.length out then out else Array.sub out 0 n

let apply_step t (step : Reconfig.step) =
  let m = t.n_sites in
  (* Effective changes only — redundant operations (adding an existing copy,
     dropping an absent one, rebalancing onto the primary) are no-ops, so
     synthetic plans need not inspect replica sets. Ascending by item. *)
  let changes =
    match step with
    | Reconfig.Add_replica { item; site } ->
        if t.primary.(item) <> site && not (mem_sorted t.replicas.(item) site) then
          [ (item, site, true) ]
        else []
    | Reconfig.Drop_replica { item; site } ->
        if mem_sorted t.replicas.(item) site then [ (item, site, false) ] else []
    | Reconfig.Rebalance_site { from_site; to_site } ->
        let acc = ref [] in
        for item = t.n_items - 1 downto 0 do
          if mem_sorted t.replicas.(item) from_site then begin
            if t.primary.(item) <> to_site && not (mem_sorted t.replicas.(item) to_site) then
              acc := (item, to_site, true) :: !acc;
            acc := (item, from_site, false) :: !acc
          end
        done;
        !acc
  in
  if changes = [] then t
  else begin
    (* Only the touched item rows, site rows and crossed copy-graph edges are
       rebuilt; everything untouched is shared with [t]. *)
    let replicas = Array.copy t.replicas in
    List.iter
      (fun (item, site, add) ->
        replicas.(item) <-
          (if add then merge_row replicas.(item) ~adds:[ site ] ~drops:[]
           else merge_row replicas.(item) ~adds:[] ~drops:[ site ]))
      changes;
    let site_adds = Hashtbl.create 4 and site_drops = Hashtbl.create 4 in
    List.iter
      (fun (item, site, add) ->
        let tbl = if add then site_adds else site_drops in
        let prev = match Hashtbl.find_opt tbl site with Some l -> l | None -> [] in
        Hashtbl.replace tbl site (item :: prev))
      changes;
    let placed = Array.copy t.placed in
    let touched = Hashtbl.create 4 in
    Hashtbl.iter (fun s _ -> Hashtbl.replace touched s ()) site_adds;
    Hashtbl.iter (fun s _ -> Hashtbl.replace touched s ()) site_drops;
    Hashtbl.iter
      (fun site () ->
        let get tbl = match Hashtbl.find_opt tbl site with Some l -> List.rev l | None -> [] in
        placed.(site) <- merge_row placed.(site) ~adds:(get site_adds) ~drops:(get site_drops))
      touched;
    let graph = Digraph.copy t.graph in
    let edge_mult = Hashtbl.copy t.edge_mult in
    let edges_added = ref [] and edges_removed = ref [] in
    List.iter
      (fun (item, site, add) ->
        let u = t.primary.(item) in
        let key = (u * m) + site in
        let cur = match Hashtbl.find_opt edge_mult key with Some c -> c | None -> 0 in
        if add then begin
          Hashtbl.replace edge_mult key (cur + 1);
          if cur = 0 then begin
            Digraph.add_edge graph u site;
            edges_added := (u, site) :: !edges_added
          end
        end
        else if cur <= 1 then begin
          Hashtbl.remove edge_mult key;
          Digraph.remove_edge graph u site;
          edges_removed := (u, site) :: !edges_removed
        end
        else Hashtbl.replace edge_mult key (cur - 1))
      changes;
    let backedge_list =
      if !edges_added = [] && !edges_removed = [] then t.backedge_list
      else
        let removed = !edges_removed in
        let kept = List.filter (fun e -> not (List.mem e removed)) t.backedge_list in
        let fresh = List.filter (fun (u, v) -> v < u) !edges_added in
        List.sort_uniq compare (fresh @ kept)
    in
    { t with replicas; placed; graph; backedge_list; edge_mult }
  end

let n_replicas t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.replicas

let n_replicated_items t =
  Array.fold_left (fun acc a -> if Array.length a = 0 then acc else acc + 1) 0 t.replicas
