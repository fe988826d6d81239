module Rng = Repdb_sim.Rng

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

let parse_float name v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "reconfig: %s is not a number: %S" name v)

let parse_int name v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "reconfig: %s is not an integer: %S" name v)

(* "k1=v1,k2=v2" -> assoc list *)
let parse_opts s =
  let parts = if s = "" then [] else String.split_on_char ',' s in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      match String.index_opt part '=' with
      | Some i ->
          let k = String.sub part 0 i
          and v = String.sub part (i + 1) (String.length part - i - 1) in
          Ok ((k, v) :: acc)
      | None -> Error (Printf.sprintf "reconfig: expected key=value, got %S" part))
    (Ok []) parts

let req_field opts key parse =
  match List.assoc_opt key opts with
  | Some v -> parse key v
  | None -> Error (Printf.sprintf "reconfig: missing %s=..." key)

let parse_clause acc clause =
  let head, opts_s =
    match String.index_opt clause ':' with
    | Some i -> (String.sub clause 0 i, String.sub clause (i + 1) (String.length clause - i - 1))
    | None -> (clause, "")
  in
  let* opts = parse_opts opts_s in
  match String.index_opt head '@' with
  | Some i -> (
      let kind = String.sub head 0 i
      and arg = String.sub head (i + 1) (String.length head - i - 1) in
      let* at = parse_float "trigger time" arg in
      match kind with
      | "add" ->
          let* item = req_field opts "item" parse_int in
          let* site = req_field opts "site" parse_int in
          Ok ({ at; step = Add_replica { item; site } } :: acc)
      | "drop" ->
          let* item = req_field opts "item" parse_int in
          let* site = req_field opts "site" parse_int in
          Ok ({ at; step = Drop_replica { item; site } } :: acc)
      | "rebalance" ->
          let* from_site = req_field opts "from" parse_int in
          let* to_site = req_field opts "to" parse_int in
          Ok ({ at; step = Rebalance_site { from_site; to_site } } :: acc)
      | other -> Error (Printf.sprintf "reconfig: unknown clause %S" other))
  | None -> Error (Printf.sprintf "reconfig: unknown clause %S" clause)

(* Canonical step order: trigger time, ties broken structurally, so parsing,
   [synthetic] and [to_string] all agree on one deterministic sequence. *)
let sort_steps steps = List.sort (fun a b -> compare (a.at, a.step) (b.at, b.step)) steps

let of_string spec =
  let clauses =
    String.split_on_char ';' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  let* steps =
    List.fold_left (fun acc c -> Result.bind acc (fun acc -> parse_clause acc c)) (Ok []) clauses
  in
  Ok { steps = sort_steps steps }

(* The shortest of %.15g/%.16g/%.17g that parses back to [f], so that
   [of_string (to_string s) = Ok s]; a hand-written 1037.31 prints as such. *)
let fmt_float f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string p =
  let buf = Buffer.create 64 in
  let clause fmt =
    if Buffer.length buf > 0 then Buffer.add_char buf ';';
    Printf.ksprintf (Buffer.add_string buf) fmt
  in
  List.iter
    (fun t ->
      match t.step with
      | Add_replica { item; site } -> clause "add@%s:item=%d,site=%d" (fmt_float t.at) item site
      | Drop_replica { item; site } -> clause "drop@%s:item=%d,site=%d" (fmt_float t.at) item site
      | Rebalance_site { from_site; to_site } ->
          clause "rebalance@%s:from=%d,to=%d" (fmt_float t.at) from_site to_site)
    p.steps;
  Buffer.contents buf

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
