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

(* Vertices number the committed gids in ascending order: [number gid]
   replaces each gid by its vertex in place and returns the gid of each
   vertex. Gids come from a counter, so they usually span a range not much
   wider than the number of accesses: then a flat array indexed by
   [gid - lo] numbers them. A wider range falls back to a hash table. *)
let number gid =
  let total = Array.length gid in
  let lo = Array.fold_left Int.min max_int gid and hi = Array.fold_left Int.max min_int gid in
  let span = hi - lo + 1 in
  if total = 0 then [||]
  else if span > 0 && span <= (4 * total) + 4096 then begin
    let slot = Array.make span (-1) in
    Array.iter (fun g -> slot.(g - lo) <- 0) gid;
    let n = ref 0 in
    for i = 0 to span - 1 do
      if slot.(i) = 0 then begin
        slot.(i) <- !n;
        incr n
      end
    done;
    let gids = Array.make !n 0 in
    Array.iteri (fun i v -> if v >= 0 then gids.(v) <- lo + i) slot;
    Array.iteri (fun j g -> gid.(j) <- slot.(g - lo)) gid;
    gids
  end
  else begin
    let tbl = Hashtbl.create total in
    Array.iter (fun g -> Hashtbl.replace tbl g 0) gid;
    let gids = Hashtbl.fold (fun g _ acc -> g :: acc) tbl [] |> List.sort compare |> Array.of_list in
    Array.iteri (fun v g -> Hashtbl.replace tbl g v) gids;
    Array.iteri (fun j g -> gid.(j) <- Hashtbl.find tbl g) gid;
    gids
  end

(* One pass over a log, [vtx.(lo .. hi-1)] and [kv.(lo .. hi-1)]. We add an
   edge from every conflicting predecessor, but transitively redundant
   edges don't affect acyclicity, so it suffices to track the last
   committed writer and the readers seen since: a new write conflicts with
   that writer and those readers; a new read conflicts with that writer. *)
let scan_positional edges readers vtx kv lo hi =
  let last_writer = ref (-1) in
  readers.n <- 0;
  for j = lo to hi - 1 do
    let v = vtx.(j) in
    if !last_writer >= 0 then edge edges !last_writer v;
    if kv.(j) land 1 = 0 then push readers v
    else begin
      for i = 0 to readers.n - 1 do
        edge edges readers.a.(i) v
      done;
      last_writer := v;
      readers.n <- 0
    end
  done

(* Version-tagged logs come from the multi-version protocols (occ-epoch,
   ssi): a snapshot read executes at some log position but observes an older
   version, so positional order is not the conflict order there. Edges are
   derived from the versions instead. Every install counts, in (version,
   log position) order: ww edges chain the installs, a reader of [v] gets
   wr from the last installer of [v] and rw to the first installer of the
   next installed version, found by binary search. Unversioned accesses in
   such a log are ignored. *)
let scan_versioned edges writes vtx kv lo hi =
  let version j = kv.(j) asr 2 in
  writes.n <- 0;
  for j = lo to hi - 1 do
    if kv.(j) land 3 = 3 then push writes j
  done;
  let w = Array.sub writes.a 0 writes.n in
  Array.stable_sort (fun p q -> Int.compare (version p) (version q)) w;
  let k = Array.length w in
  for i = 1 to k - 1 do
    edge edges vtx.(w.(i - 1)) vtx.(w.(i))
  done;
  (* The first index whose version is above [v], or [k]. *)
  let rec above v lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if version w.(mid) > v then above v lo mid else above v (mid + 1) hi
  in
  for j = lo to hi - 1 do
    if kv.(j) land 3 = 2 then begin
      let r = vtx.(j) and i = above (version j) 0 k in
      if i > 0 && version w.(i - 1) = version j then edge edges vtx.(w.(i - 1)) r;
      if i < k then edge edges r vtx.(w.(i))
    end
  done

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
  let { History.start; gids = vtx; kvs = kv } = History.grouped history in
  let gids = number vtx in
  let edges = buf (4 * Array.length vtx) and scratch = buf 16 in
  for l = 0 to Array.length start - 2 do
    let lo = start.(l) and hi = start.(l + 1) in
    let j = ref lo in
    while !j < hi && kv.(!j) land 2 = 0 do
      incr j
    done;
    if !j < hi then scan_versioned edges scratch vtx kv lo hi
    else scan_positional edges scratch vtx kv lo hi
  done;
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
