module Rng = Repdb_sim.Rng
module Clauses = Repdb_clauses.Clauses

type crash = { site : int; at : float; down_for : float }

type window = {
  src : int;
  dst : int;
  from_t : float;
  until_t : float;
  drop_prob : float;
  extra_delay : float;
}

type partition = { from_t : float; until_t : float; groups : int list list }

type corruption = { c_site : int; c_at : float; c_prob : float }

type schedule = {
  crashes : crash list;
  windows : window list;
  partitions : partition list;
  corruptions : corruption list;
  rto : float;
}

let default_rto = 5.0
let default_down = 500.0
let max_attempts = 10_000

let empty =
  { crashes = []; windows = []; partitions = []; corruptions = []; rto = default_rto }

let is_empty s =
  s.crashes = [] && s.windows = [] && s.partitions = [] && s.corruptions = []

let string_of_groups groups =
  String.concat "|" (List.map (fun g -> String.concat "." (List.map string_of_int g)) groups)

let last_event s =
  let m = List.fold_left (fun acc c -> Float.max acc (c.at +. c.down_for)) 0.0 s.crashes in
  let m =
    List.fold_left
      (fun acc (w : window) -> if Float.is_finite w.until_t then Float.max acc w.until_t else acc)
      m s.windows
  in
  (* Heals count as events: messages parked behind a partition only depart
     after [until_t], so run horizons must extend past it. *)
  let m = List.fold_left (fun acc p -> Float.max acc p.until_t) m s.partitions in
  List.fold_left (fun acc c -> Float.max acc c.c_at) m s.corruptions

let validate ~n_sites s =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let site_ok ~any name v =
    if v >= n_sites || v < if any then -1 else 0 then
      fail "Fault: %s=%d out of range for %d sites" name v n_sites
  in
  (* Every float check is written so that NaN fails it. *)
  let window_ok from_t until_t = from_t >= 0.0 && Float.is_finite until_t && until_t > from_t in
  if not (s.rto > 0.0 && Float.is_finite s.rto) then fail "Fault: rto=%g must be positive" s.rto;
  List.iter
    (fun c ->
      site_ok ~any:false "site" c.site;
      if c.at < 0.0 || not (Float.is_finite c.at) then fail "Fault: crash at %g ms" c.at;
      if c.down_for <= 0.0 || not (Float.is_finite c.down_for) then
        fail "Fault: crash downtime %g must be positive" c.down_for)
    s.crashes;
  (* Per-site downtimes must not overlap: a site cannot crash while down. *)
  let by_site = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.replace by_site c.site (c :: Option.value ~default:[] (Hashtbl.find_opt by_site c.site)))
    s.crashes;
  Hashtbl.iter
    (fun site cs ->
      let sorted = List.sort (fun a b -> compare a.at b.at) cs in
      let rec check = function
        | a :: (b :: _ as rest) ->
            if a.at +. a.down_for > b.at then
              fail "Fault: overlapping crashes at site %d (%.0f+%.0f overlaps %.0f)" site a.at
                a.down_for b.at;
            check rest
        | _ -> ()
      in
      check sorted)
    by_site;
  List.iter
    (fun w ->
      site_ok ~any:true "src" w.src;
      site_ok ~any:true "dst" w.dst;
      if not (window_ok w.from_t w.until_t) then fail "Fault: bad window %g-%g" w.from_t w.until_t;
      if not (w.drop_prob >= 0.0 && w.drop_prob <= 1.0) then
        fail "Fault: drop probability %g not in [0,1]" w.drop_prob;
      if w.extra_delay < 0.0 || not (Float.is_finite w.extra_delay) then
        fail "Fault: extra delay %g must be >= 0" w.extra_delay)
    s.windows;
  List.iter
    (fun p ->
      if not (window_ok p.from_t p.until_t) then
        fail "Fault: bad partition window %g-%g" p.from_t p.until_t;
      if List.length p.groups < 2 then
        fail "Fault: partition %g-%g needs at least two groups" p.from_t p.until_t;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun g ->
          if g = [] then fail "Fault: partition %g-%g has an empty group" p.from_t p.until_t;
          List.iter
            (fun site ->
              site_ok ~any:false "partition site" site;
              if Hashtbl.mem seen site then
                fail "Fault: partition %g-%g lists site %d twice" p.from_t p.until_t site;
              Hashtbl.replace seen site ())
            g)
        p.groups)
    s.partitions;
  List.iter
    (fun c ->
      site_ok ~any:false "corrupt site" c.c_site;
      if c.c_at < 0.0 || not (Float.is_finite c.c_at) then fail "Fault: corrupt at %g ms" c.c_at;
      if not (c.c_prob > 0.0 && c.c_prob <= 1.0) then
        fail "Fault: corrupt probability %g not in (0,1]" c.c_prob)
    s.corruptions

(* --- spec parsing --------------------------------------------------------- *)

let ( let* ) = Result.bind

(* "T1-T2": the separator is the first '-' that is not an exponent's sign. *)
let parse_span s =
  let rec sep i =
    match String.index_from_opt s i '-' with
    | Some j when j > 0 && (s.[j - 1] = 'e' || s.[j - 1] = 'E') -> sep (j + 1)
    | found -> found
  in
  match sep 0 with
  | Some i ->
      let* a = Clauses.float "window start" (String.sub s 0 i) in
      let* b = Clauses.float "window end" (String.sub s (i + 1) (String.length s - i - 1)) in
      Ok (a, b)
  | None -> Error (Printf.sprintf "expected T1-T2, got %S" s)

(* "0.1.2|3.4.5" -> [[0;1;2];[3;4;5]] *)
let parse_groups _name v =
  let group g = Clauses.all (Clauses.int "partition site") (String.split_on_char '.' g) in
  Clauses.all group (String.split_on_char '|' v)

let parse_clause acc (c : Clauses.clause) =
  match c.arg with
  | Some arg -> (
      match c.kind with
      | "crash" ->
          let* at = Clauses.float "crash time" arg in
          let* site = Clauses.req c "site" Clauses.int in
          let* down_for = Clauses.opt c "down" ~default:default_down Clauses.float in
          Ok { acc with crashes = { site; at; down_for } :: acc.crashes }
      | ("drop" | "delay") as kind ->
          let* from_t, until_t = parse_span arg in
          let* drop_prob, extra_delay =
            if kind = "drop" then Result.map (fun p -> (p, 0.0)) (Clauses.req c "p" Clauses.float)
            else Result.map (fun d -> (0.0, d)) (Clauses.req c "add" Clauses.float)
          in
          let* src = Clauses.opt c "src" ~default:(-1) Clauses.int in
          let* dst = Clauses.opt c "dst" ~default:(-1) Clauses.int in
          let w = { src; dst; from_t; until_t; drop_prob; extra_delay } in
          Ok { acc with windows = w :: acc.windows }
      | "partition" ->
          let* from_t, until_t = parse_span arg in
          let* groups = Clauses.req c "groups" parse_groups in
          Ok { acc with partitions = { from_t; until_t; groups } :: acc.partitions }
      | "corrupt" ->
          let* c_at = Clauses.float "corrupt time" arg in
          let* c_site = Clauses.req c "site" Clauses.int in
          let* c_prob = Clauses.req c "p" Clauses.float in
          Ok { acc with corruptions = { c_site; c_at; c_prob } :: acc.corruptions }
      | other -> Error (Printf.sprintf "unknown clause %S" other))
  | None -> (
      match String.index_opt c.kind '=' with
      | Some i when String.sub c.kind 0 i = "rto" ->
          let* rto =
            Clauses.float "rto" (String.sub c.kind (i + 1) (String.length c.kind - i - 1))
          in
          Ok { acc with rto }
      | _ -> Error (Printf.sprintf "unknown clause %S" c.text))

let sort_crashes = List.sort (fun a b -> compare (a.at, a.site) (b.at, b.site))
let sort_corruptions = List.sort (fun a b -> compare (a.c_at, a.c_site) (b.c_at, b.c_site))

let of_string spec =
  let* s = Clauses.parse ~prefix:"faults" parse_clause empty spec in
  Ok
    {
      s with
      crashes = sort_crashes (List.rev s.crashes);
      windows = List.rev s.windows;
      partitions = List.rev s.partitions;
      corruptions = sort_corruptions (List.rev s.corruptions);
    }

let to_string s =
  let f = Clauses.fmt_float in
  let span from_t until_t = f from_t ^ "-" ^ f until_t in
  let pair (w : window) =
    (if w.src >= 0 then [ ("src", string_of_int w.src) ] else [])
    @ if w.dst >= 0 then [ ("dst", string_of_int w.dst) ] else []
  in
  let window (w : window) kind (k, v) =
    if v > 0.0 then [ Clauses.print kind ~arg:(span w.from_t w.until_t) ((k, f v) :: pair w) ]
    else []
  in
  Clauses.join
    (List.map
       (fun c ->
         Clauses.print "crash" ~arg:(f c.at) [ ("site", string_of_int c.site); ("down", f c.down_for) ])
       s.crashes
    @ List.map
        (fun p ->
          Clauses.print "partition" ~arg:(span p.from_t p.until_t)
            [ ("groups", string_of_groups p.groups) ])
        s.partitions
    @ List.map
        (fun c ->
          Clauses.print "corrupt" ~arg:(f c.c_at)
            [ ("site", string_of_int c.c_site); ("p", f c.c_prob) ])
        s.corruptions
    @ List.concat_map
        (fun w -> window w "drop" ("p", w.drop_prob) @ window w "delay" ("add", w.extra_delay))
        s.windows
    @ if s.rto <> default_rto then [ "rto=" ^ f s.rto ] else [])

let pp ppf s =
  if is_empty s then Fmt.string ppf "(none)" else Fmt.string ppf (to_string s)

let synthetic ~n_sites ~seed ~n_crashes ?(n_corruptions = 0) ?(mean_downtime = 300.0)
    ?(window = (200.0, 4000.0)) () =
  let rng = Rng.create ((seed * 73) + 5) in
  let lo, hi = window in
  let site_free = Array.make n_sites 0.0 in
  let crashes = ref [] in
  for _ = 1 to n_crashes do
    let at = Rng.float_range rng lo hi in
    let down_for = Float.min 2000.0 (Float.max 100.0 (Rng.exponential rng mean_downtime)) in
    let start = Rng.int rng n_sites in
    (* First site (in rotation from a random start) that is back up by [at];
       skip the crash when every site is still down. *)
    let rec pick k =
      if k = n_sites then None
      else
        let s = (start + k) mod n_sites in
        if site_free.(s) <= at then Some s else pick (k + 1)
    in
    match pick 0 with
    | Some site ->
        site_free.(site) <- at +. down_for;
        crashes := { site; at; down_for } :: !crashes
    | None -> ()
  done;
  let corruptions = ref [] in
  for _ = 1 to n_corruptions do
    let c_at = Float.round (Rng.float_range rng lo hi) in
    let c_site = Rng.int rng n_sites in
    let c_prob = 0.1 +. (0.4 *. Rng.float rng) in
    corruptions := { c_site; c_at; c_prob } :: !corruptions
  done;
  {
    empty with
    crashes = sort_crashes !crashes;
    corruptions = sort_corruptions !corruptions;
  }

(* --- injection ------------------------------------------------------------ *)

type injector = {
  sched : schedule;
  rng : Rng.t;
  down_iv : (float * float) list array; (* per site, disjoint, sorted by start *)
  part_iv : (float * float * int array) list;
      (* per partition: (from, until, site -> group id; -1 = in no group) *)
}

let injector ~n_sites ~seed sched =
  validate ~n_sites sched;
  let down_iv = Array.make n_sites [] in
  List.iter
    (fun c -> down_iv.(c.site) <- (c.at, c.at +. c.down_for) :: down_iv.(c.site))
    sched.crashes;
  Array.iteri (fun i ivs -> down_iv.(i) <- List.sort compare ivs) down_iv;
  let part_iv =
    List.map
      (fun p ->
        let gmap = Array.make n_sites (-1) in
        List.iteri (fun gi g -> List.iter (fun site -> gmap.(site) <- gi) g) p.groups;
        (p.from_t, p.until_t, gmap))
      sched.partitions
  in
  { sched; rng = Rng.create ((seed * 2654435761) + 99); down_iv; part_iv }

let schedule inj = inj.sched

let down inj ~site ~at =
  List.exists (fun (s, e) -> at >= s && at < e) inj.down_iv.(site)

(* Earliest instant >= [at] with [site] up. *)
let next_up inj site at =
  match List.find_opt (fun (s, e) -> at >= s && at < e) inj.down_iv.(site) with
  | Some (_, e) -> e
  | None -> at

(* Does some active partition put [src] and [dst] in different groups? Sites
   listed in no group keep full connectivity. This deliberately ignores crash
   downtime: "unreachable" means separated by the topology, so the oracle's
   answer matches the [Partitioned] abort reason. *)
let separated inj ~src ~dst ~at =
  List.exists
    (fun (s, e, gmap) ->
      at >= s && at < e && gmap.(src) >= 0 && gmap.(dst) >= 0 && gmap.(src) <> gmap.(dst))
    inj.part_iv

let reachable inj ~src ~dst ~at = not (separated inj ~src ~dst ~at)

(* Latest heal time over the partitions separating (src, dst) at [at]. *)
let sep_until inj ~src ~dst ~at =
  List.fold_left
    (fun acc (s, e, gmap) ->
      if at >= s && at < e && gmap.(src) >= 0 && gmap.(dst) >= 0 && gmap.(src) <> gmap.(dst)
      then Float.max acc e
      else acc)
    at inj.part_iv

let matches w ~src ~dst ~at =
  (w.src < 0 || w.src = src) && (w.dst < 0 || w.dst = dst) && at >= w.from_t && at < w.until_t

(* Combined loss probability and delay surcharge of the windows active on
   (src, dst) at [at]. *)
let link_state inj ~src ~dst ~at =
  List.fold_left
    (fun (p, extra) w ->
      if matches w ~src ~dst ~at then
        (1.0 -. ((1.0 -. p) *. (1.0 -. w.drop_prob)), extra +. w.extra_delay)
      else (p, extra))
    (0.0, 0.0) inj.sched.windows

type transmit = { dropped : float list; depart : float; extra : float }

let transmit inj ~src ~dst ~now =
  let rto = inj.sched.rto in
  let dropped = ref [] in
  let t = ref now in
  let tries = ref 0 in
  let result = ref None in
  while !result = None do
    incr tries;
    if !tries > max_attempts then
      failwith
        (Printf.sprintf
           "Fault.transmit: message %d->%d sent at %.0f ms never got through after %d attempts \
            (unbounded drop window?)"
           src dst now max_attempts);
    if down inj ~site:src ~at:!t || down inj ~site:dst ~at:!t || separated inj ~src ~dst ~at:!t
    then begin
      (* One timed-out attempt, then probe again once both ends can be up and
         no partition separates them. *)
      dropped := !t :: !dropped;
      let up = Float.max (next_up inj src !t) (next_up inj dst !t) in
      let up = Float.max up (sep_until inj ~src ~dst ~at:!t) in
      t := Float.max up (!t +. rto)
    end
    else begin
      let p, extra = link_state inj ~src ~dst ~at:!t in
      if p > 0.0 && Rng.bool inj.rng p then begin
        dropped := !t :: !dropped;
        t := !t +. rto
      end
      else result := Some extra
    end
  done;
  { dropped = List.rev !dropped; depart = !t; extra = Option.get !result }
