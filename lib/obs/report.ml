type t = {
  meta : (string * string) list;
  header : string array;
  data : float array list; (* row-major, sample order *)
}

let meta t = t.meta
let n_rows t = List.length t.data

(* --- Parsing -------------------------------------------------------------- *)

let split_csv line = String.split_on_char ',' line

let parse_meta line =
  (* "# repdb-timeline v1 k=v k=v ..." — tolerate any comment that carries
     k=v tokens so hand-edited files still parse. *)
  let tokens = String.split_on_char ' ' line in
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when i > 0 ->
          Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    tokens

let parse s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" then None else Some l)
  in
  let meta, rest =
    match lines with
    | l :: rest when String.length l > 0 && l.[0] = '#' -> (parse_meta l, rest)
    | _ -> ([], lines)
  in
  match rest with
  | [] -> Error "Report.parse: no header line"
  | header :: rows ->
      let header = Array.of_list (split_csv header) in
      let ncols = Array.length header in
      let exception Bad of string in
      (try
         let data =
           List.mapi
             (fun i row ->
               let cells = split_csv row in
               if List.length cells <> ncols then
                 raise (Bad (Printf.sprintf "row %d has %d cells, expected %d" (i + 1)
                               (List.length cells) ncols));
               Array.of_list
                 (List.map
                    (fun c ->
                      match float_of_string_opt c with
                      | Some f -> f
                      | None -> raise (Bad (Printf.sprintf "row %d: not a number: %S" (i + 1) c)))
                    cells))
             rows
         in
         Ok { meta; header; data }
       with Bad msg -> Error ("Report.parse: " ^ msg))

let column t name =
  match Array.find_index (fun h -> h = name) t.header with
  | None -> None
  | Some i -> Some (List.map (fun row -> row.(i)) t.data)

(* All columns named [prefix.N], as [(site, series)] sorted by site. *)
let site_columns t prefix =
  let p = prefix ^ "." in
  let plen = String.length p in
  let cols = ref [] in
  Array.iteri
    (fun i h ->
      if String.length h > plen && String.sub h 0 plen = p then
        match int_of_string_opt (String.sub h plen (String.length h - plen)) with
        | Some site -> cols := (site, i) :: !cols
        | None -> ())
    t.header;
  List.sort (fun (a, _) (b, _) -> compare a b) !cols
  |> List.map (fun (site, i) -> (site, List.map (fun row -> row.(i)) t.data))

let sum_series = function
  | [] -> []
  | first :: rest ->
      List.fold_left (fun acc s -> List.map2 ( +. ) acc s) first rest

(* --- Series statistics ---------------------------------------------------- *)

let fmax = List.fold_left Float.max 0.0
let fsum = List.fold_left ( +. ) 0.0
let fmean xs = match xs with [] -> 0.0 | _ -> fsum xs /. float_of_int (List.length xs)
let last xs = match List.rev xs with [] -> 0.0 | x :: _ -> x

(* Meta entries whose key starts with [prefix], as [(key, value)] in file
   order — the driver folds end-of-run breakdowns (per-reason aborts, the
   detector/repair counters of a healing run) into the CSV meta line so the
   report can render them from the file alone. *)
let meta_prefixed t prefix =
  let plen = String.length prefix in
  List.filter
    (fun (k, _) -> String.length k > plen && String.sub k 0 plen = prefix)
    t.meta

(* --- Sparklines ----------------------------------------------------------- *)

let spark_chars = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}"; "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

(* Downsample to at most 60 buckets (max within each bucket), then map onto
   the 8 block glyphs against the series maximum. *)
let sparkline xs =
  let n = List.length xs in
  if n = 0 then ""
  else begin
    let arr = Array.of_list xs in
    let buckets = min 60 n in
    let vals =
      Array.init buckets (fun b ->
          let lo = b * n / buckets and hi = max (((b + 1) * n / buckets) - 1) (b * n / buckets) in
          let m = ref arr.(lo) in
          for i = lo to hi do
            if arr.(i) > !m then m := arr.(i)
          done;
          !m)
    in
    let top = Array.fold_left Float.max 0.0 vals in
    let buf = Buffer.create (buckets * 3) in
    Array.iter
      (fun v ->
        let level =
          if top <= 0.0 then 0
          else min 7 (int_of_float (v /. top *. 8.0))
        in
        Buffer.add_string buf spark_chars.(level))
      vals;
    Buffer.contents buf
  end

(* --- Markdown ------------------------------------------------------------- *)

let time_range t =
  match column t "t_ms" with
  | None | Some [] -> (0.0, 0.0)
  | Some ts -> (List.hd ts, last ts)

let to_markdown t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "# repdb timeline report\n\n";
  if t.meta <> [] then begin
    pf "%s\n\n"
      (String.concat " · "
         (List.map (fun (k, v) -> Printf.sprintf "**%s**=%s" k v) t.meta))
  end;
  let t0, t1 = time_range t in
  pf "%d samples covering %.3f – %.3f ms\n" (n_rows t) t0 t1;
  (match site_columns t "lag_ms" with
  | [] -> ()
  | lags ->
      pf "\n## Replication lag (ms)\n\n";
      pf "| site | lag over time | max | mean | last |\n";
      pf "|------|---------------|-----|------|------|\n";
      List.iter
        (fun (site, xs) ->
          pf "| %d | `%s` | %.3f | %.3f | %.3f |\n" site (sparkline xs) (fmax xs) (fmean xs)
            (last xs))
        lags;
      let peak = fmax (List.map (fun (_, xs) -> fmax xs) lags) in
      pf "\npeak lag across sites: %.3f ms\n" peak);
  (match (site_columns t "commits", site_columns t "aborts") with
  | [], _ | _, [] -> ()
  | commits, aborts ->
      let ctotal = sum_series (List.map snd commits) in
      let atotal = sum_series (List.map snd aborts) in
      pf "\n## Throughput (per window, all sites)\n\n";
      pf "| series | over time | total | peak/window |\n";
      pf "|--------|-----------|-------|-------------|\n";
      pf "| commits | `%s` | %.0f | %.0f |\n" (sparkline ctotal) (fsum ctotal) (fmax ctotal);
      pf "| aborts | `%s` | %.0f | %.0f |\n" (sparkline atotal) (fsum atotal) (fmax atotal));
  (match meta_prefixed t "aborts." with
  | [] -> ()
  | reasons ->
      pf "\n## Aborts by reason\n\n";
      pf "| reason | count |\n|--------|-------|\n";
      List.iter
        (fun (k, v) ->
          pf "| %s | %s |\n" (String.sub k 7 (String.length k - 7)) v)
        reasons);
  (match site_columns t "phi" with
  | [] -> ()
  | phis ->
      pf "\n## Failure detector (φ suspicion level)\n\n";
      pf "| site | phi over time | max | last |\n";
      pf "|------|---------------|-----|------|\n";
      List.iter
        (fun (site, xs) ->
          pf "| %d | `%s` | %.2f | %.2f |\n" site (sparkline xs) (fmax xs) (last xs))
        phis);
  (let heal =
     meta_prefixed t "detector." @ meta_prefixed t "heal." @ meta_prefixed t "repair."
     @ meta_prefixed t "corrupt."
   in
   match heal with
   | [] -> ()
   | counters ->
       pf "\n## Self-healing\n\n";
       pf "| counter | value |\n|---------|-------|\n";
       List.iter (fun (k, v) -> pf "| %s | %s |\n" k v) counters);
  let gauge name col =
    match column t col with
    | None | Some [] -> ()
    | Some xs -> pf "| %s | `%s` | %.0f | %.1f |\n" name (sparkline xs) (fmax xs) (fmean xs)
  in
  let sum_gauge name prefix =
    match site_columns t prefix with
    | [] -> ()
    | cols ->
        let xs = sum_series (List.map snd cols) in
        pf "| %s | `%s` | %.0f | %.1f |\n" name (sparkline xs) (fmax xs) (fmean xs)
  in
  pf "\n## Activity\n\n";
  pf "| gauge | over time | max | mean |\n";
  pf "|-------|-----------|-----|------|\n";
  gauge "active txns" "active_txns";
  gauge "msgs in flight" "msgs_inflight";
  sum_gauge "locks held" "locks_held";
  sum_gauge "lock waiters" "lock_waiters";
  sum_gauge "pending updates" "pending";
  Buffer.contents buf
