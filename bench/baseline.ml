(* Tracked performance baselines for the evaluation engine.

     dune exec bench/baseline.exe                    # fig2a fig2b fig3a fig3b
     dune exec bench/baseline.exe -- -j 4 fig2a
     REPDB_BENCH_TXNS=50 dune exec bench/baseline.exe -- -o /tmp/b.json

   Each selected experiment of [Experiment.registry] is regenerated twice —
   sequentially and on a [-j] domain pool — and BENCH_sweeps.json records
   wall-clock per experiment for both paths, the speedup, simulator
   events/second, and whether the two outputs (a figure's CSV, a report
   list's text) were byte-identical (they must be). Future PRs diff this file to
   regression-check the experiment engine's performance.

   [--check FILE] compares this run against a committed baseline JSON: the
   run fails (exit 1) if FILE is missing any required field or if the run's
   total sequential events/second has regressed more than 15% below FILE's.
   The [-j] timings are recorded but not gated: a one-CPU runner cannot
   measure a parallel speedup. The [-j] output-identity check always applies.
   CI uses this to gate merges on the committed BENCH_sweeps.json. *)

module Params = Repdb_workload.Params
module Experiment = Repdb.Experiment
module Pool = Repdb_par.Pool

let txns_per_thread =
  match Sys.getenv_opt "REPDB_BENCH_TXNS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1000)
  | None -> 1000

let base = { Params.default with txns_per_thread }

let default_figures = [ "fig2a"; "fig2b"; "fig3a"; "fig3b" ]

let usage () =
  Fmt.epr "usage: baseline [-j N] [-o FILE] [--check FILE] [experiment...]@.experiments: %s@."
    (String.concat ", " Experiment.ids);
  exit 1

let jobs, out_file, check_file, selected =
  let rec parse jobs out check acc = function
    | [] -> (jobs, out, check, List.rev acc)
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse j out check acc rest
        | _ -> usage ())
    | "-o" :: f :: rest -> parse jobs f check acc rest
    | "--check" :: f :: rest -> parse jobs out (Some f) acc rest
    | ("-j" | "-o" | "--check") :: _ -> usage ()
    | arg :: rest ->
        if List.mem arg Experiment.ids then parse jobs out check (arg :: acc) rest
        else begin
          Fmt.epr "unknown experiment %S@." arg;
          usage ()
        end
  in
  parse (Pool.default_domains ()) "BENCH_sweeps.json" None [] (List.tl (Array.to_list Sys.argv))

let selected = if selected = [] then default_figures else selected

type row = {
  id : string;
  seq_s : float;
  par_s : float;
  events : int;  (* simulator events per full target (same both paths) *)
  identical : bool;
}

(* Simulator events of an outcome, and a rendering that the sequential and
   [-j] runs must reproduce byte for byte. *)
let digest (outcome : Experiment.outcome) =
  let reports, text =
    match outcome with
    | Figure fig ->
        (List.concat_map (fun (pt : Experiment.point) -> pt.reports) fig.points, Experiment.to_csv fig)
    | Reports rs -> (rs, Fmt.str "%a" Experiment.pp_reports rs)
  in
  (List.fold_left (fun acc (_, (r : Repdb.Driver.report)) -> acc + r.sim_events) 0 reports, text)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* --- [--check]: regression gate against a committed baseline JSON ----------

   The baseline file is machine-written by this very program, so a field
   scanner is enough — we locate ["name": value] textually instead of
   parsing arbitrary JSON (no JSON library in the toolchain). *)

let check_fail fmt = Fmt.kstr (fun m -> Fmt.epr "baseline check FAILED: %s@." m; exit 1) fmt

let index_from_opt s from needle =
  let n = String.length needle and len = String.length s in
  let rec go i =
    if i + n > len then None else if String.sub s i n = needle then Some i else go (i + 1)
  in
  go (max 0 from)

(* The numeric value following ["name":], searching from [from]. *)
let number_after json ~from name =
  let needle = Printf.sprintf "\"%s\":" name in
  match index_from_opt json from needle with
  | None -> None
  | Some i ->
      let len = String.length json in
      let j = ref (i + String.length needle) in
      while !j < len && (json.[!j] = ' ' || json.[!j] = '\n') do
        incr j
      done;
      let start = !j in
      while
        !j < len
        && (match json.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub json start (!j - start))

let check_against file ~seq_rate =
  let json =
    match In_channel.with_open_bin file In_channel.input_all with
    | j -> j
    | exception Sys_error e -> check_fail "cannot read %s: %s" file e
  in
  (* Every field this program writes must be present — a truncated or
     hand-edited baseline is worse than none. *)
  List.iter
    (fun f ->
      if index_from_opt json 0 (Printf.sprintf "\"%s\"" f) = None then
        check_fail "%s: required field %S missing" file f)
    [
      "generated_by"; "txns_per_thread"; "jobs"; "recommended_domains"; "figures"; "total";
      "seq_s"; "events"; "seq_events_per_s"; "identical"; "large"; "occ"; "heal";
    ];
  (* The hand-merged entries ("large" from bench/large.exe at production
     scale, "occ" from the optimistic-vs-locking contention sweep, "heal"
     from the self-healing MTTR sweep) must carry a positive events/s — a
     zero or missing rate means the sweep never actually ran. *)
  List.iter
    (fun entry ->
      match index_from_opt json 0 (Printf.sprintf "\"%s\"" entry) with
      | None -> assert false (* presence checked above *)
      | Some at -> (
          match number_after json ~from:at "events_per_s" with
          | Some v when v > 0.0 -> ()
          | Some v -> check_fail "%s: %s.events_per_s = %g is not positive" file entry v
          | None -> check_fail "%s: %s.events_per_s missing or not a number" file entry))
    [ "large"; "occ"; "heal" ];
  let total_at =
    match index_from_opt json 0 "\"total\"" with
    | Some i -> i
    | None -> assert false (* presence checked above *)
  in
  let total name =
    match number_after json ~from:total_at name with
    | Some v when v > 0.0 -> v
    | Some v -> check_fail "%s: total.%s = %g is not positive" file name v
    | None -> check_fail "%s: total.%s missing or not a number" file name
  in
  (match number_after json ~from:0 "txns_per_thread" with
  | Some t when int_of_float t <> txns_per_thread ->
      Fmt.epr
        "baseline check: warning: txns_per_thread differs (run %d vs baseline %.0f); events/s is \
         roughly scale-free but prefer matching REPDB_BENCH_TXNS@."
        txns_per_thread t
  | _ -> ());
  let tolerance = 0.15 in
  let baseline = total "seq_events_per_s" in
  let ratio = seq_rate /. baseline in
  Fmt.pr "check seq %10.0f ev/s vs baseline %10.0f  (%+.1f%%)@." seq_rate baseline
    ((ratio -. 1.0) *. 100.0);
  if ratio < 1.0 -. tolerance then
    check_fail "seq events/s regressed %.1f%% (> %.0f%% tolerance)"
      ((1.0 -. ratio) *. 100.0)
      (tolerance *. 100.0);
  Fmt.pr "baseline check OK (tolerance %.0f%%) against %s@." (tolerance *. 100.0) file

let () =
  let pool = if jobs > 1 then Some (Pool.create ~domains:jobs ()) else None in
  let rows =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown pool)
      (fun () ->
        List.map
          (fun id ->
            (* At the CLI's default resolution, [repdb experiment]'s --steps. *)
            let make pool = (Option.get (Experiment.find id)).run ~pool ~base ~steps:10 in
            Fmt.pr "%-14s seq ... %!" id;
            let seq_s, seq_out = time (fun () -> make None) in
            Fmt.pr "%6.2fs   -j %d ... %!" seq_s jobs;
            let par_s, par_out = time (fun () -> make pool) in
            let events, seq_text = digest seq_out in
            let identical = seq_text = snd (digest par_out) in
            Fmt.pr "%6.2fs   %4.2fx   %s@." par_s (seq_s /. par_s)
              (if identical then "output identical" else "OUTPUT MISMATCH");
            { id; seq_s; par_s; events; identical })
          selected)
  in
  let tot f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let seq_total = tot (fun r -> r.seq_s) and par_total = tot (fun r -> r.par_s) in
  let events_total = List.fold_left (fun acc r -> acc + r.events) 0 rows in
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let buf = Buffer.create 4096 in
  let row_json r =
    Printf.sprintf
      "    { \"id\": %S, \"seq_s\": %.4f, \"par_s\": %.4f, \"speedup\": %.3f,\n\
      \      \"events\": %d, \"seq_events_per_s\": %.0f, \"par_events_per_s\": %.0f,\n\
      \      \"identical\": %b }"
      r.id r.seq_s r.par_s (r.seq_s /. r.par_s) r.events
      (float_of_int r.events /. r.seq_s)
      (float_of_int r.events /. r.par_s)
      r.identical
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"generated_by\": \"bench/baseline.exe\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"txns_per_thread\": %d,\n" txns_per_thread);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"figures\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map row_json rows));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"total\": { \"seq_s\": %.4f, \"par_s\": %.4f, \"speedup\": %.3f, \"events\": %d,\n\
       \             \"seq_events_per_s\": %.0f, \"par_events_per_s\": %.0f, \"identical\": %b }\n"
       seq_total par_total
       (seq_total /. par_total)
       events_total
       (float_of_int events_total /. seq_total)
       (float_of_int events_total /. par_total)
       all_identical);
  Buffer.add_string buf "}\n";
  let oc = open_out out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "total: seq %.2fs, -j %d %.2fs (%.2fx), %d events, %s -> %s@." seq_total jobs par_total
    (seq_total /. par_total) events_total
    (if all_identical then "all outputs identical" else "OUTPUT MISMATCH")
    out_file;
  if not all_identical then exit 1;
  Option.iter
    (fun file -> check_against file ~seq_rate:(float_of_int events_total /. seq_total))
    check_file
