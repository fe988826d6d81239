type counter = { c_name : string; c : int array }

type histogram = {
  h_name : string;
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array array; (* site -> bucket (last = overflow) *)
  sums : float array; (* per site *)
  total : float array;
      (* One element: all sites, summed in observation order, so means derived
         from it are bit-identical to a single running sum, unlike a fold of
         [sums]. A flat float array, not a mutable float field, so that
         updating it does not allocate. *)
  ns : int array; (* per site *)
  maxs : float array; (* per site: largest observation, for overflow hits *)
}

type t = {
  n_sites : int;
  mutable counters : counter list; (* reverse registration order *)
  mutable histograms : histogram list;
}

let default_buckets =
  [| 0.25; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0;
     10000.0; 30000.0 |]

let create ~n_sites () =
  if n_sites < 1 then invalid_arg "Stats.create: need at least one site";
  { n_sites; counters = []; histograms = [] }

let n_sites t = t.n_sites

let find_counter t name = List.find_opt (fun c -> c.c_name = name) t.counters

let counter t name =
  match find_counter t name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c = Array.make t.n_sites 0 } in
      t.counters <- c :: t.counters;
      c

let histogram ?buckets t name =
  match List.find_opt (fun h -> h.h_name = name) t.histograms with
  | Some h -> (
      (* A histogram silently returned with different buckets than requested
         would misattribute every subsequent observation. *)
      match buckets with
      | Some b when b <> h.bounds ->
          invalid_arg
            (Printf.sprintf "Stats.histogram: %S already registered with different buckets" name)
      | _ -> h)
  | None ->
      let buckets = Option.value buckets ~default:default_buckets in
      Array.iteri
        (fun i b ->
          if i > 0 && buckets.(i - 1) >= b then
            invalid_arg "Stats.histogram: buckets must be strictly increasing")
        buckets;
      let h =
        {
          h_name = name;
          bounds = Array.copy buckets;
          counts = Array.init t.n_sites (fun _ -> Array.make (Array.length buckets + 1) 0);
          sums = Array.make t.n_sites 0.0;
          total = [| 0.0 |];
          ns = Array.make t.n_sites 0;
          maxs = Array.make t.n_sites 0.0;
        }
      in
      t.histograms <- h :: t.histograms;
      h

let[@inline] incr c ~site = c.c.(site) <- c.c.(site) + 1
let[@inline] add c ~site n = c.c.(site) <- c.c.(site) + n

(* First bucket whose upper bound admits [v]; the overflow bucket otherwise.
   Annotated: left polymorphic, each probe would box the bound it reads and
   compare through [caml_lessequal]. *)
let bucket_of (bounds : float array) (v : float) =
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h ~site v =
  let b = bucket_of h.bounds v in
  h.counts.(site).(b) <- h.counts.(site).(b) + 1;
  h.sums.(site) <- h.sums.(site) +. v;
  h.total.(0) <- h.total.(0) +. v;
  h.ns.(site) <- h.ns.(site) + 1;
  if v > h.maxs.(site) then h.maxs.(site) <- v

let counter_value c ~site = c.c.(site)
let counter_total c = Array.fold_left ( + ) 0 c.c
let total t name = match find_counter t name with Some c -> counter_total c | None -> 0
let histogram_count h ~site = if site >= 0 then h.ns.(site) else Array.fold_left ( + ) 0 h.ns
let histogram_sum h ~site = if site >= 0 then h.sums.(site) else h.total.(0)

let histogram_mean h ~site =
  let n = histogram_count h ~site in
  if n = 0 then 0.0 else histogram_sum h ~site /. float_of_int n

(* Nearest rank: the smallest rank with at least [q] of [n] samples at or
   below it, i.e. ceil(q*n), 1-based. Truncating q*n instead would skew one
   element high on exact boundaries: p50 of [1;2;3;4] must be 2, not 3. *)
let rank ~n q = max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

(* Aggregate bucket counts for [site], or all sites when [site < 0]. *)
let bucket_counts h site =
  let nb = Array.length h.bounds + 1 in
  if site >= 0 then h.counts.(site)
  else begin
    let acc = Array.make nb 0 in
    Array.iter (fun row -> Array.iteri (fun i n -> acc.(i) <- acc.(i) + n) row) h.counts;
    acc
  end

let histogram_max h ~site =
  if site >= 0 then h.maxs.(site) else Array.fold_left Float.max 0.0 h.maxs

let percentile h ~site q =
  let counts = bucket_counts h site in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank = rank ~n:total q in
    let nb = Array.length h.bounds in
    let rec find i acc =
      if i >= nb then
        (* The rank falls in the overflow bucket: clamping to the largest
           finite bound would silently under-report the tail, so report the
           observed maximum instead. *)
        histogram_max h ~site
      else
        let acc = acc + counts.(i) in
        if acc >= rank then h.bounds.(i) else find (i + 1) acc
    in
    find 0 0
  end

let percentile_total h q = percentile h ~site:(-1) q


(* One rendering path for counters and histograms: every column is a header
   plus one pre-formatted cell per row (each site, then "all"), widths
   computed from the widest entry — so the layout adapts to metric names
   and value magnitudes instead of truncating either. *)
let pp_table ppf t =
  let counters = List.rev t.counters and histograms = List.rev t.histograms in
  let n_rows = t.n_sites + 1 in
  let site_of_row i = if i < t.n_sites then i else -1 in
  let col header cell = (header, Array.init n_rows (fun i -> cell (site_of_row i))) in
  let columns =
    (col "site" (fun site -> if site >= 0 then string_of_int site else "all")
    :: List.map
         (fun c ->
           col c.c_name (fun site ->
               string_of_int (if site >= 0 then c.c.(site) else counter_total c)))
         counters)
    @ List.concat_map
        (fun h ->
          let count site = histogram_count h ~site in
          (* The "all" row folds the per-site sums, not [total]. *)
          let mean site =
            if site >= 0 then histogram_mean h ~site
            else
              let n = count site and s = Array.fold_left ( +. ) 0.0 h.sums in
              if n = 0 then 0.0 else s /. float_of_int n
          in
          let ms v = Printf.sprintf "%.1f" v in
          [
            col (h.h_name ^ "#") (fun site -> string_of_int (count site));
            col (h.h_name ^ ".avg") (fun site -> ms (mean site));
            col (h.h_name ^ ".p50") (fun site -> ms (percentile h ~site 0.5));
            col (h.h_name ^ ".p95") (fun site -> ms (percentile h ~site 0.95));
            col (h.h_name ^ ".p99") (fun site -> ms (percentile h ~site 0.99));
          ])
        histograms
  in
  let width (header, cells) =
    Array.fold_left (fun w s -> max w (String.length s)) (String.length header) cells
  in
  let widths = List.map width columns in
  (* Site label column left-aligned, value columns right-aligned. *)
  let line get =
    String.concat "  "
      (List.mapi
         (fun i (c, w) ->
           let s = get c in
           if i = 0 then Printf.sprintf "%-*s" w s else Printf.sprintf "%*s" w s)
         (List.combine columns widths))
  in
  Fmt.pf ppf "@[<v>%s" (line fst);
  for i = 0 to n_rows - 1 do
    Fmt.pf ppf "@,%s" (line (fun (_, cells) -> cells.(i)))
  done;
  Fmt.pf ppf "@]"
