(* Tests for the domain pool and for the parallel experiment engine's
   headline guarantee: -j N output is bit-identical to sequential. *)

module Pool = Repdb_par.Pool
module Params = Repdb_workload.Params

let check = Alcotest.check
let checki = Alcotest.(check int)

(* --- Pool.map ------------------------------------------------------------- *)

let test_map_ordering () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 1000 Fun.id in
      let ys = Pool.map pool xs ~f:(fun x -> x * x) in
      check
        Alcotest.(array int)
        "results land by input index"
        (Array.map (fun x -> x * x) xs)
        ys)

let test_map_empty () =
  Pool.with_pool ~domains:4 (fun pool ->
      checki "empty in, empty out" 0 (Array.length (Pool.map pool [||] ~f:Fun.id)))

let test_map_singleton () =
  Pool.with_pool ~domains:4 (fun pool ->
      check Alcotest.(array int) "singleton" [| 42 |] (Pool.map pool [| 21 |] ~f:(fun x -> 2 * x)))

let test_map_sequential_pool () =
  (* domains = 1 must not spawn anything and still work. *)
  Pool.with_pool ~domains:1 (fun pool ->
      checki "domains" 1 (Pool.domains pool);
      check
        Alcotest.(array int)
        "sequential path" [| 1; 2; 3 |]
        (Pool.map pool [| 0; 1; 2 |] ~f:succ))

exception Task_failed of int

let test_map_exception () =
  Pool.with_pool ~domains:4 (fun pool ->
      (match Pool.map pool (Array.init 64 Fun.id) ~f:(fun i -> if i = 17 then raise (Task_failed i) else i) with
      | _ -> Alcotest.fail "expected Task_failed to propagate"
      | exception Task_failed 17 -> ());
      (* The pool survives a raising round and can be reused. *)
      check Alcotest.(array int) "usable after exception" [| 0; 1; 2; 3 |]
        (Pool.map pool (Array.init 4 Fun.id) ~f:Fun.id))

let test_map_reuse () =
  Pool.with_pool ~domains:3 (fun pool ->
      for round = 1 to 5 do
        let n = round * 37 in
        let ys = Pool.map pool (Array.init n Fun.id) ~f:(fun x -> x + round) in
        check Alcotest.(array int) "round" (Array.init n (fun x -> x + round)) ys
      done)

let test_nested_map_rejected () =
  (* A nested map that would actually re-enter the pool machinery is
     rejected (singleton/empty inputs take the sequential shortcut and are
     harmless, so they are allowed). *)
  Pool.with_pool ~domains:2 (fun pool ->
      match Pool.map pool [| 0; 1; 2; 3 |] ~f:(fun _ -> Pool.map pool [| 0; 1; 2; 3 |] ~f:Fun.id) with
      | _ -> Alcotest.fail "expected nested map to be rejected"
      | exception Invalid_argument _ -> ())

let test_adaptive_chunk () =
  checki "small n" 1 (Pool.adaptive_chunk ~domains:4 ~n:10);
  checki "big n" 62 (Pool.adaptive_chunk ~domains:4 ~n:1000);
  checki "never 0" 1 (Pool.adaptive_chunk ~domains:8 ~n:0)

let test_create_invalid () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  ignore (Pool.map pool [| 1; 2 |] ~f:succ);
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.map pool [| 1 |] ~f:succ with
  | _ -> Alcotest.fail "expected map after shutdown to be rejected"
  | exception Invalid_argument _ -> ()

(* --- parallel == sequential on the real experiment engine ------------------ *)

let test_experiment_determinism () =
  (* Small but real: fig2a at 3 sweep points x 2 protocols = 6 Driver.runs.
     The figure CSV captures every reported metric to full precision, so a
     single diverging event anywhere in any simulation would show up. *)
  let base = { Params.default with txns_per_thread = 5 } in
  let seq = Experiments.output ~steps:2 "fig2a" base in
  let par = Pool.with_pool ~domains:4 (fun pool -> Experiments.output ~pool ~steps:2 "fig2a" base) in
  check Alcotest.string "fig2a csv identical under -j 4" seq par

let test_reports_determinism () =
  let base = { Params.default with txns_per_thread = 5 } in
  let seq = Experiments.output "resp" base in
  let par = Pool.with_pool ~domains:3 (fun pool -> Experiments.output ~pool "resp" base) in
  check Alcotest.string "resp reports identical under -j 3" seq par

let test_registry_determinism () =
  (* Every entry on the single fan-out path, site-order's shared placement
     and deadlock-policy's relabelled jobs included, at a tiny base. [large]
     and [heal] are too slow here; their sweep-specific tests cover them. *)
  let base = { Params.default with n_sites = 4; txns_per_thread = 2 } in
  let ids = List.filter (fun id -> id <> "large" && id <> "heal") Repdb.Experiment.ids in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun id ->
          check Alcotest.string (id ^ " identical under -j 2") (Experiments.output id base)
            (Experiments.output ~pool id base))
        ids)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "map empty" `Quick test_map_empty;
          Alcotest.test_case "map singleton" `Quick test_map_singleton;
          Alcotest.test_case "sequential pool" `Quick test_map_sequential_pool;
          Alcotest.test_case "exception propagation" `Quick test_map_exception;
          Alcotest.test_case "reuse across rounds" `Quick test_map_reuse;
          Alcotest.test_case "nested map rejected" `Quick test_nested_map_rejected;
          Alcotest.test_case "adaptive chunk" `Quick test_adaptive_chunk;
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "fig2a -j1 == -j4" `Quick test_experiment_determinism;
          Alcotest.test_case "reports -j1 == -j3" `Quick test_reports_determinism;
          Alcotest.test_case "every registry entry -j1 == -j2" `Quick test_registry_determinism;
        ] );
    ]
