(* repdb's benchmark.

     dune exec perfbench/bench.exe -- --workload paper-lazy --seed 42 --seconds 15 --trace 0
     dune exec perfbench/bench.exe -- --seed 42 --repeat 3 -o out.json   # every workload, a child each
     dune exec perfbench/bench.exe -- --compare base.json new.json
     dune exec perfbench/bench.exe -- --quick                     # self-test, also a runtest rule

   With --workload, one workload runs in this process: timed untraced
   rounds for --seconds, every correctness oracle, then the end-to-end
   metrics (--trace 0) or the per-layer replays (--trace 1). The last line
   of standard output is one JSON object {correct, attempted, failed,
   metrics}; the exit code is 1 when an oracle or a replay-fidelity check
   fails. Without --workload, every workload runs in fresh child processes
   (--repeat untraced runs and one traced run each) and -o collects their
   detailed results. *)

module W = Workloads

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let load path = try Json.of_file path with Json.Error e -> die "%s: %s" path e | Sys_error e -> die "%s" e

let driver_opts ~seed ~seconds : Run.opts =
  { seed; seconds; txns = None; slots = None; check_reps = 3; self_test = false }

let metric_json ?(samples = false) (m : Run.metric) =
  ( m.name,
    Json.Obj
      ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]
      @ if samples then [ ("samples", Json.Arr (List.map (fun v -> Json.Num v) m.samples)) ] else []) )

let result_json (r : Run.result) =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Obj (List.map (fun m -> metric_json m) r.metrics));
    ]

let detail_json (r : Run.result) ~seed ~trace =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Num (if trace then 1.0 else 0.0));
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("sim_fingerprint", Json.Str r.fingerprint);
      ("host", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.host));
      ("problems", Json.Arr (List.map (fun s -> Json.Str s) r.problems));
      ("warnings", Json.Arr (List.map (fun s -> Json.Str s) r.warnings));
      ("metrics", Json.Obj (List.map (fun m -> metric_json ~samples:true m) r.metrics));
    ]

let print_result (r : Run.result) =
  List.iter (fun (m : Run.metric) -> Printf.printf "  %-28s %16.6f %s\n" m.name m.value m.unit) r.metrics;
  List.iter (fun (k, v) -> Printf.printf "  host.%-23s %16.6f\n" k v) r.host;
  Printf.printf "  sim_fingerprint %s\n" r.fingerprint;
  List.iter (fun p -> Printf.printf "  FAIL %s\n" p) r.problems;
  List.iter (fun p -> Printf.printf "  WARN %s\n" p) r.warnings

(* --- one workload -------------------------------------------------------- *)

let run_workload name ~seed ~seconds ~trace ~detail =
  let w = match W.find name with Some w -> w | None -> die "unknown workload %S" name in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" name seed seconds (if trace then 1 else 0);
  let r = Run.run w (driver_opts ~seed ~seconds) ~trace in
  print_result r;
  if detail then print_endline ("detail " ^ Json.to_string (detail_json r ~seed ~trace));
  print_endline (Json.to_string (result_json r));
  exit (if r.correct then 0 else 1)

(* --- every workload, a fresh child process each --------------------------- *)

let run_all ~seed ~seconds ~repeat ~out =
  let runs = ref [] and ok = ref true in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun trace ->
          let args =
            [|
              Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" seconds; "--trace"; trace; "--detail";
            |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let rec read () =
            match In_channel.input_line ic with
            | None -> ()
            | Some line ->
                (if String.starts_with ~prefix:"detail " line then
                   runs := Json.of_string (String.sub line 7 (String.length line - 7)) :: !runs
                 else if not (String.starts_with ~prefix:"{" line) then print_endline line);
                read ()
          in
          read ();
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> ()
          | _ ->
              ok := false;
              Printf.printf "  child for %s --trace %s failed\n" w.name trace)
        (List.init repeat (fun _ -> "0") @ [ "1" ]);
      flush stdout)
    W.all;
  let doc =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num seconds);
        ("runs", Json.Arr (List.rev !runs));
      ]
  in
  Option.iter (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc ^ "\n"))) out;
  exit (if !ok then 0 else 1)

(* --- --compare ----------------------------------------------------------- *)

(* Python's statistics.quantiles(values, n=4), the default exclusive method. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let spread values =
  let med = Replay.median values in
  let q1, q3 = quartiles values in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

type bound = { b_name : string; better_higher : bool; bound : float }

let bounds benchmark =
  let j = load benchmark in
  List.map
    (fun e ->
      let get k = match Json.member k e with Some v -> v | None -> die "%s: end_to_end entry without %s" benchmark k in
      {
        b_name = Option.get (Json.to_str (get "name"));
        better_higher = Json.to_str (get "better") = Some "higher";
        bound = Option.get (Json.to_num (get "bound"));
      })
    (Json.to_list (Option.value (Json.member "end_to_end" j) ~default:(Json.Arr [])))

(* The trace-0 runs of one workload in an -o file. *)
let e2e_runs doc workload =
  List.filter
    (fun r ->
      Json.member "workload" r = Some (Json.Str workload) && Json.member "trace" r = Some (Json.Num 0.0))
    (Json.to_list (Option.value (Json.member "runs" doc) ~default:(Json.Arr [])))

(* One value per run. Host noise comes in episodes longer than a run, so
   the spread that decides "unresolved" is taken across runs when a side has
   several; a single run falls back to its per-round samples. *)
let metric_values runs name =
  let values, samples =
    List.fold_left
      (fun (values, samples) r ->
        match Option.bind (Json.member "metrics" r) (Json.member name) with
        | None -> (values, samples)
        | Some m ->
            let v = Option.get (Option.bind (Json.member "value" m) Json.to_num) in
            let s =
              List.filter_map Json.to_num (Json.to_list (Option.value (Json.member "samples" m) ~default:(Json.Arr [])))
            in
            (v :: values, (if s = [] then [ v ] else s) @ samples))
      ([], []) runs
  in
  (values, match values with [ _ ] -> samples | _ -> values)

let failed_share runs =
  let total k = List.fold_left (fun a r -> a +. Option.value (Option.bind (Json.member k r) Json.to_num) ~default:0.0) 0.0 runs in
  if total "attempted" = 0.0 then 0.0 else total "failed" /. total "attempted"

let compare_files ~benchmark base_path new_path =
  let bounds = bounds benchmark in
  let base = load base_path and next = load new_path in
  let worse = ref 0 in
  Printf.printf "%-15s %-22s %14s %14s %8s  %s\n" "workload" "metric" "base" "new" "change" "verdict";
  List.iter
    (fun (w : W.t) ->
      let br = e2e_runs base w.name and nr = e2e_runs next w.name in
      if br = [] || nr = [] then Printf.printf "%-15s (missing from one side)\n" w.name
      else begin
        List.iter
          (fun b ->
            let bv, bs = metric_values br b.b_name and nv, ns = metric_values nr b.b_name in
            if bv = [] || nv = [] then Printf.printf "%-15s %-22s (missing)\n" w.name b.b_name
            else
              let bm = Replay.median bv and nm = Replay.median nv in
              (* Positive [loss] means the new side is worse. *)
              let loss = if bm = 0.0 then 0.0 else (if b.better_higher then bm -. nm else nm -. bm) /. Float.abs bm in
              let all_better =
                List.for_all
                  (fun n -> List.for_all (fun x -> if b.better_higher then n > x else n < x) bs)
                  ns
              in
              let verdict =
                if (spread bs > b.bound || spread ns > b.bound) && not all_better then "unresolved"
                else if loss > b.bound then "worse"
                else if loss < -.b.bound then "better"
                else "same"
              in
              if verdict = "worse" then incr worse;
              Printf.printf "%-15s %-22s %14.6g %14.6g %+7.2f%%  %s\n" w.name b.b_name bm nm
                (-100.0 *. loss) verdict)
          bounds;
        let bf = failed_share br and nf = failed_share nr in
        let verdict = if nf > bf then "worse" else if nf < bf then "better" else "same" in
        if verdict = "worse" then incr worse;
        Printf.printf "%-15s %-22s %14.6g %14.6g %8s  %s\n" w.name "failed_share" bf nf "" verdict
      end)
    W.all;
  exit (if !worse > 0 then 1 else 0)

(* --- --quick ------------------------------------------------------------- *)

(* Every workload on one slot with 20 transactions per client thread, both
   metric sets, every oracle and fidelity check; then every metric named in
   BENCHMARK.json must have been printed. A negative core residual, a timing
   result, only warns here. *)
let quick ~benchmark =
  let opts : Run.opts = { seed = 42; seconds = 0.0; txns = Some 20; slots = Some 1; check_reps = 1; self_test = true } in
  let j = load benchmark in
  let wanted section =
    List.filter_map
      (fun e -> Option.bind (Json.member "name" e) Json.to_str)
      (Json.to_list (Option.value (Json.member section j) ~default:(Json.Arr [])))
  in
  let bad = ref [] in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, section) ->
          let r = Run.run w opts ~trace in
          if not r.correct then bad := List.map (fun p -> w.name ^ ": " ^ p) r.problems @ !bad;
          List.iter (fun p -> prerr_endline (Printf.sprintf "quick: warning: %s: %s" w.name p)) r.warnings;
          let printed = List.map (fun (m : Run.metric) -> m.name) r.metrics in
          List.iter
            (fun name ->
              if not (List.mem name printed) then
                bad := Printf.sprintf "%s: %s metric %s not printed" w.name section name :: !bad)
            (wanted section);
          List.iter
            (fun (m : Run.metric) ->
              if not (Float.is_finite m.value) then bad := Printf.sprintf "%s: %s is not finite" w.name m.name :: !bad)
            r.metrics)
        [ (false, "end_to_end"); (true, "per_layer") ])
    W.all;
  if !bad <> [] then begin
    List.iter (fun s -> prerr_endline ("quick: " ^ s)) (List.rev !bad);
    exit 1
  end;
  Printf.printf "quick: %d workloads, every oracle, fidelity check and metric ok\n" (List.length W.all)

(* --- command line -------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 and trace = ref false in
  let detail = ref false and repeat = ref 1 and out = ref None and benchmark = ref "BENCHMARK.json" in
  let mode = ref `Run in
  let int_arg k v = match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" k v in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest ->
        (seconds := match float_of_string_opt v with Some s when s >= 0.0 -> s | _ -> die "bad --seconds %S" v);
        parse rest
    | "--trace" :: v :: rest ->
        (trace := match v with "0" -> false | "1" -> true | _ -> die "--trace expects 0 or 1");
        parse rest
    | "--detail" :: rest -> detail := true; parse rest
    | "--repeat" :: v :: rest -> repeat := max 1 (int_arg "--repeat" v); parse rest
    | "-o" :: v :: rest -> out := Some v; parse rest
    | "--benchmark" :: v :: rest -> benchmark := v; parse rest
    | "--quick" :: rest -> mode := `Quick; parse rest
    | "--compare" :: a :: b :: rest -> mode := `Compare (a, b); parse rest
    | a :: _ -> die "unknown or incomplete argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and seconds = !seconds in
  match (!mode, !workload) with
  | `Quick, _ -> quick ~benchmark:!benchmark
  | `Compare (a, b), _ -> compare_files ~benchmark:!benchmark a b
  | `Run, Some w -> run_workload w ~seed ~seconds ~trace:!trace ~detail:!detail
  | `Run, None -> run_all ~seed ~seconds ~repeat:!repeat ~out:!out
