type t = { parents : int array; kids : int list array }

let n_vertices t = Array.length t.parents

let parent t v =
  if v < 0 || v >= n_vertices t then invalid_arg "Tree.parent: vertex out of range";
  t.parents.(v)

let children t v =
  if v < 0 || v >= n_vertices t then invalid_arg "Tree.children: vertex out of range";
  t.kids.(v)

let roots t =
  let acc = ref [] in
  for v = Array.length t.parents - 1 downto 0 do
    if t.parents.(v) = -1 then acc := v :: !acc
  done;
  !acc

let is_ancestor t a v =
  let rec up v = if v = -1 then false else if v = a then true else up t.parents.(v) in
  up v

let depth t v =
  let rec up acc v = if t.parents.(v) = -1 then acc else up (acc + 1) t.parents.(v) in
  up 0 v

let path_down t a v =
  let rec up acc v =
    if v = a then acc
    else if v = -1 then invalid_arg "Tree.path_down: not an ancestor"
    else up (v :: acc) t.parents.(v)
  in
  up [] v

let subtree t v =
  let rec collect v = v :: List.concat_map collect t.kids.(v) in
  collect v

let of_parents parents =
  let n = Array.length parents in
  let kids = Array.make n [] in
  Array.iteri
    (fun v p ->
      if p <> -1 then begin
        if p < 0 || p >= n then invalid_arg "Tree.of_parents: parent out of range";
        kids.(p) <- v :: kids.(p)
      end)
    parents;
  Array.iteri (fun v l -> kids.(v) <- List.sort compare l) kids;
  let t = { parents; kids } in
  (* Reject cycles: every vertex must reach a root. *)
  Array.iteri
    (fun v _ ->
      let rec up steps v =
        if steps > n then invalid_arg "Tree.of_parents: cycle in parent array"
        else if v <> -1 then up (steps + 1) parents.(v)
      in
      up 0 v)
    parents;
  t

let chain_of_order order =
  let n = Array.length order in
  let parents = Array.make n (-1) in
  for i = 1 to n - 1 do
    parents.(order.(i)) <- order.(i - 1)
  done;
  of_parents parents

let chain_components g ~order =
  let pos = Array.make (Digraph.n_vertices g) 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let parents = Array.make (Digraph.n_vertices g) (-1) in
  let chain comp =
    let sorted = List.sort (fun a b -> compare pos.(a) pos.(b)) comp in
    let rec link = function
      | a :: (b :: _ as rest) ->
          parents.(b) <- a;
          link rest
      | [ _ ] | [] -> ()
    in
    link sorted
  in
  List.iter chain (Digraph.weak_components g);
  of_parents parents

let of_dag g =
  match Digraph.topo_sort g with
  | None -> invalid_arg "Tree.of_dag: graph has a cycle"
  | Some order -> chain_components g ~order

let satisfies g t =
  List.for_all (fun (u, v) -> is_ancestor t u v) (Digraph.edges g)

let pp ppf t =
  Fmt.pf ppf "tree {";
  Array.iteri (fun v p -> if p <> -1 then Fmt.pf ppf " %d->%d" p v) t.parents;
  Fmt.pf ppf " }"
