module Digraph = Repdb_graph.Digraph

type verdict = Serializable | Not_serializable of int list

(* A growable int buffer: [a.(0 .. n-1)]. *)
type buf = { mutable a : int array; mutable n : int }

let buf cap = { a = Array.make (max cap 16) 0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

(* Edges are appended to one buffer as (u, v) pairs; self-loops are dropped
   here, duplicates when the buffer becomes rows (see [csr]). *)
let edge b u v =
  if u <> v then begin
    push b u;
    push b v
  end

(* Vertices number the committed gids in ascending order. Gids come from a
   counter, so they usually span a range not much wider than the number of
   accesses: then [vertex] reads a flat array indexed by [gid - lo]. A wider
   range falls back to a hash table. *)
let index (logs : History.access array list) =
  let lo = ref max_int and hi = ref min_int and total = ref 0 in
  List.iter
    (fun log ->
      total := !total + Array.length log;
      Array.iter
        (fun (a : History.access) ->
          if a.gid < !lo then lo := a.gid;
          if a.gid > !hi then hi := a.gid)
        log)
    logs;
  let lo = !lo and span = !hi - !lo + 1 in
  if !total = 0 then ([||], fun _ -> invalid_arg "Serializability: no vertex")
  else if span > 0 && span <= (4 * !total) + 4096 then begin
    let slot = Array.make span (-1) in
    List.iter (Array.iter (fun (a : History.access) -> slot.(a.gid - lo) <- 0)) logs;
    let n = ref 0 in
    for i = 0 to span - 1 do
      if slot.(i) = 0 then begin
        slot.(i) <- !n;
        incr n
      end
    done;
    let gids = Array.make !n 0 in
    Array.iteri (fun i v -> if v >= 0 then gids.(v) <- lo + i) slot;
    (gids, fun gid -> slot.(gid - lo))
  end
  else begin
    let tbl = Hashtbl.create !total in
    List.iter (Array.iter (fun (a : History.access) -> Hashtbl.replace tbl a.gid 0)) logs;
    let gids = Hashtbl.fold (fun gid _ acc -> gid :: acc) tbl [] |> List.sort compare |> Array.of_list in
    Array.iteri (fun v gid -> Hashtbl.replace tbl gid v) gids;
    (gids, Hashtbl.find tbl)
  end

(* One pass per (site, item) log. We add an edge from every conflicting
   predecessor, but transitively redundant edges don't affect acyclicity, so
   it suffices to track the last committed writer and the readers seen since:
   a new write conflicts with that writer and those readers; a new read
   conflicts with that writer. *)
let scan_positional edges readers vertex (log : History.access array) =
  let last_writer = ref (-1) in
  readers.n <- 0;
  Array.iter
    (fun (a : History.access) ->
      let v = vertex a.gid in
      if !last_writer >= 0 then edge edges !last_writer v;
      match a.kind with
      | History.R -> push readers v
      | History.W ->
          for i = 0 to readers.n - 1 do
            edge edges readers.a.(i) v
          done;
          last_writer := v;
          readers.n <- 0)
    log

(* Version-tagged logs come from the multi-version protocols (occ-epoch,
   ssi): a snapshot read executes at some log position but observes an older
   version, so positional order is not the conflict order there. Edges are
   derived from the versions instead: ww between writers of consecutive
   installed versions, wr from the writer of [v] to each reader of [v], and
   rw from each reader of [v] to the writer of the next installed version,
   found by binary search. When a version is installed twice the later
   writer counts. *)
let scan_versioned edges vertex (log : History.access array) =
  let writes =
    List.filter_map
      (fun (a : History.access) ->
        match (a.kind, a.version) with History.W, Some v -> Some (v, vertex a.gid) | _ -> None)
      (Array.to_list log)
    |> List.stable_sort (fun (v, _) (v', _) -> Int.compare v v')
  in
  let rec last_of_each = function
    | (v, _) :: ((v', _) :: _ as rest) when v = v' -> last_of_each rest
    | w :: rest -> w :: last_of_each rest
    | [] -> []
  in
  let writes = Array.of_list (last_of_each writes) in
  let k = Array.length writes in
  for i = 1 to k - 1 do
    edge edges (snd writes.(i - 1)) (snd writes.(i))
  done;
  (* The first index whose version is above [v], or [k]. *)
  let rec above v lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst writes.(mid) > v then above v lo mid else above v (mid + 1) hi
  in
  Array.iter
    (fun (a : History.access) ->
      match (a.kind, a.version) with
      | History.R, Some v ->
          let r = vertex a.gid and i = above v 0 k in
          if i > 0 && fst writes.(i - 1) = v then edge edges (snd writes.(i - 1)) r;
          if i < k then edge edges r (snd writes.(i))
      | _ -> ())
    log

(* The edge pairs as compressed sparse rows over [n] vertices: the
   successors of [u] are [succ.(off.(u) .. off.(u + 1) - 1)], ascending and
   distinct. A counting sort by destination, then a stable one by source,
   puts each row in order without a comparison; duplicates are then
   adjacent and squeezed out in place. *)
let csr n (e : buf) =
  let m = e.n / 2 and a = e.a in
  let out_start = Array.make (n + 1) 0 and in_start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u = a.(2 * i) and v = a.((2 * i) + 1) in
    out_start.(u + 1) <- out_start.(u + 1) + 1;
    in_start.(v + 1) <- in_start.(v + 1) + 1
  done;
  for u = 1 to n do
    out_start.(u) <- out_start.(u) + out_start.(u - 1);
    in_start.(u) <- in_start.(u) + in_start.(u - 1)
  done;
  let cursor = Array.sub in_start 0 n and by_dst = Array.make m 0 in
  for i = 0 to m - 1 do
    let v = a.((2 * i) + 1) in
    by_dst.(cursor.(v)) <- a.(2 * i);
    cursor.(v) <- cursor.(v) + 1
  done;
  Array.blit out_start 0 cursor 0 n;
  let succ = Array.make m 0 in
  for v = 0 to n - 1 do
    for j = in_start.(v) to in_start.(v + 1) - 1 do
      let u = by_dst.(j) in
      succ.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1
    done
  done;
  let off = Array.make (n + 1) 0 and w = ref 0 in
  for u = 0 to n - 1 do
    off.(u) <- !w;
    for j = out_start.(u) to out_start.(u + 1) - 1 do
      if !w = off.(u) || succ.(!w - 1) <> succ.(j) then begin
        succ.(!w) <- succ.(j);
        incr w
      end
    done
  done;
  off.(n) <- !w;
  (off, succ)

(* The serialization graph as rows, with the gid of each vertex. *)
let graph history =
  let logs = History.committed_logs history in
  let gids, vertex = index logs in
  let edges = buf (4 * History.size history) and readers = buf 16 in
  List.iter
    (fun log ->
      if Array.exists (fun (a : History.access) -> a.version <> None) log then
        scan_versioned edges vertex log
      else scan_positional edges readers vertex log)
    logs;
  (csr (Array.length gids) edges, gids)

(* An iterative depth-first search that visits roots and successors in
   ascending order, so it meets the same first cycle as
   [Digraph.find_cycle] on the same graph and returns it the same way: from
   the vertex the search came back to, along the search path. *)
let find_cycle (off, succ) =
  let n = Array.length off - 1 in
  let state = Array.make n 0 (* 0 unvisited, 1 on the path, 2 done *) in
  let path = Array.make n 0 and next = Array.make n 0 and depth = Array.make n 0 in
  let exception Cycle of int list in
  let enter top v =
    path.(top) <- v;
    next.(top) <- off.(v);
    depth.(v) <- top;
    state.(v) <- 1
  in
  try
    for root = 0 to n - 1 do
      if state.(root) = 0 then begin
        let top = ref 0 in
        enter 0 root;
        while !top >= 0 do
          let u = path.(!top) and j = next.(!top) in
          if j = off.(u + 1) then begin
            state.(u) <- 2;
            decr top
          end
          else begin
            next.(!top) <- j + 1;
            let v = succ.(j) in
            match state.(v) with
            | 0 ->
                incr top;
                enter !top v
            | 1 -> raise (Cycle (List.init (!top - depth.(v) + 1) (fun i -> path.(depth.(v) + i))))
            | _ -> ()
          end
        done
      end
    done;
    None
  with Cycle c -> Some c

let conflict_graph history =
  let (off, succ), gids = graph history in
  let g = Digraph.create (Array.length gids) in
  for u = 0 to Array.length gids - 1 do
    for j = off.(u) to off.(u + 1) - 1 do
      Digraph.add_edge g u succ.(j)
    done
  done;
  (g, gids)

let check history =
  let g, gids = graph history in
  match find_cycle g with
  | None -> Serializable
  | Some vertices -> Not_serializable (List.map (fun v -> gids.(v)) vertices)

let pp_verdict ppf = function
  | Serializable -> Fmt.string ppf "serializable"
  | Not_serializable cycle ->
      Fmt.pf ppf "NOT serializable: cycle %a" Fmt.(list ~sep:(any " -> ") int) cycle
