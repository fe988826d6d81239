module Rng = Repdb_sim.Rng
module Clauses = Repdb_clauses.Clauses

type step =
  | Add_replica of { item : int; site : int }
  | Drop_replica of { item : int; site : int }
  | Rebalance_site of { from_site : int; to_site : int }

type timed = { at : float; step : step }

type plan = { steps : timed list }

let empty = { steps = [] }
let is_empty p = p.steps = []
let n_steps p = List.length p.steps

let last_event p = List.fold_left (fun acc t -> Float.max acc t.at) 0.0 p.steps

let validate ~n_sites ~n_items p =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let site_ok name v =
    if v < 0 || v >= n_sites then fail "Reconfig: %s=%d out of range for %d sites" name v n_sites
  in
  let item_ok v =
    if v < 0 || v >= n_items then fail "Reconfig: item=%d out of range for %d items" v n_items
  in
  List.iter
    (fun t ->
      if t.at < 0.0 || not (Float.is_finite t.at) then fail "Reconfig: step at %g ms" t.at;
      match t.step with
      | Add_replica { item; site } | Drop_replica { item; site } ->
          item_ok item;
          site_ok "site" site
      | Rebalance_site { from_site; to_site } ->
          site_ok "from" from_site;
          site_ok "to" to_site;
          if from_site = to_site then fail "Reconfig: rebalance from=%d to itself" from_site)
    p.steps

(* --- spec parsing --------------------------------------------------------- *)

let ( let* ) = Result.bind

let parse_clause acc (c : Clauses.clause) =
  match c.arg with
  | Some arg -> (
      let* at = Clauses.float "trigger time" arg in
      let pair k1 k2 =
        let* a = Clauses.req c k1 Clauses.int in
        let* b = Clauses.req c k2 Clauses.int in
        Ok (a, b)
      in
      let* step =
        match c.kind with
        | "add" -> Result.map (fun (item, site) -> Add_replica { item; site }) (pair "item" "site")
        | "drop" -> Result.map (fun (item, site) -> Drop_replica { item; site }) (pair "item" "site")
        | "rebalance" ->
            Result.map (fun (from_site, to_site) -> Rebalance_site { from_site; to_site }) (pair "from" "to")
        | other -> Error (Printf.sprintf "unknown clause %S" other)
      in
      Ok ({ at; step } :: acc))
  | None -> Error (Printf.sprintf "unknown clause %S" c.text)

(* Canonical step order: trigger time, ties broken structurally, so parsing,
   [synthetic] and [to_string] all agree on one deterministic sequence. *)
let sort_steps steps = List.sort (fun a b -> compare (a.at, a.step) (b.at, b.step)) steps

let of_string spec =
  let* steps = Clauses.parse ~prefix:"reconfig" parse_clause [] spec in
  Ok { steps = sort_steps steps }

let to_string p =
  Clauses.join
    (List.map
       (fun t ->
         let kind, (k1, v1), (k2, v2) =
           match t.step with
           | Add_replica { item; site } -> ("add", ("item", item), ("site", site))
           | Drop_replica { item; site } -> ("drop", ("item", item), ("site", site))
           | Rebalance_site { from_site; to_site } -> ("rebalance", ("from", from_site), ("to", to_site))
         in
         Clauses.print kind ~arg:(Clauses.fmt_float t.at)
           [ (k1, string_of_int v1); (k2, string_of_int v2) ])
       p.steps)

let pp ppf p = if is_empty p then Fmt.string ppf "(none)" else Fmt.string ppf (to_string p)

(* --- synthetic schedules -------------------------------------------------- *)

let synthetic ~n_sites ~n_items ~seed ~n_steps ?(window = (200.0, 4000.0)) () =
  if n_sites < 2 || n_items < 1 || n_steps <= 0 then empty
  else begin
    let rng = Rng.create ((seed * 97) + 29) in
    let lo, hi = window in
    (* Primaries are assumed round-robin ([item mod n_sites], the layout
       [Placement.generate] uses), so adds and drops can target sites
       strictly after the primary in the site order — DAG- and
       ancestor-property-preserving under the chain tree. Steps that turn
       out redundant against the drawn replica sets are no-ops at apply
       time. *)
    let draw_item_site () =
      let rec go tries =
        let item = Rng.int rng n_items in
        let primary = item mod n_sites in
        if primary < n_sites - 1 then (item, primary + 1 + Rng.int rng (n_sites - 1 - primary))
        else if tries > 50 then (item mod (n_items - 1), n_sites - 1)
        else go (tries + 1)
      in
      go 0
    in
    let steps =
      List.init n_steps (fun _ ->
          let at = Rng.float_range rng lo hi in
          let kind = Rng.float rng in
          let step =
            if kind < 0.5 then
              let item, site = draw_item_site () in
              Add_replica { item; site }
            else if kind < 0.8 then
              let item, site = draw_item_site () in
              Drop_replica { item; site }
            else begin
              (* [to > from] keeps every moved edge pointing forward in the
                 site order, so an acyclic copy graph stays acyclic. *)
              let from_site = Rng.int rng (n_sites - 1) in
              let to_site = from_site + 1 + Rng.int rng (n_sites - 1 - from_site) in
              Rebalance_site { from_site; to_site }
            end
          in
          { at; step })
    in
    { steps = sort_steps steps }
  end
