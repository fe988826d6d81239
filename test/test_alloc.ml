(* Allocation budgets for the per-transaction hot paths: minor words per
   call, averaged over [calls] calls with [Gc.minor_words] deltas. Each
   budget is the measured value plus at most 15% headroom; the comments give
   the measured figures (OCaml 5.1.1, no flambda) before and after the
   allocation-lean rewrite of each path. A budget that fails means a change
   put allocation back on a path every transaction takes. *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Generator = Repdb_workload.Generator

let calls = 10_000

(* One warm-up call first, so one-off growth (lock table, Zipf tables,
   hash buckets) is not charged to the steady state. *)
let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let within name ~budget words =
  Printf.printf "%-40s %7.2f words (budget %.2f)\n" name words budget;
  if words > budget then Alcotest.failf "%s: %.2f words per call, budget %.2f" name words budget

(* Paper defaults, ops=10: 375 words per call before, 65 after. *)
let test_gen_with () =
  let p = Params.default in
  let rng = Rng.create 42 in
  let gen = Generator.create rng p (Placement.generate rng p) in
  let site = ref 0 in
  within "Generator.gen_with (ops=10)" ~budget:74.0
    (words_per_call (fun () ->
         site := (!site + 1) mod p.n_sites;
         ignore (Sys.opaque_identity (Generator.gen_with gen rng ~site:!site))))

(* Ten uncontended locks, alternately shared and exclusive, then one
   [release_all]; per lock: 24.2 words before, 5.6 after. *)
let test_acquire_release () =
  let sim = Sim.create () in
  let lm = Lock_mgr.create ~sim ~policy:(`Timeout 50.0) () in
  let owner = ref 0 in
  let per_owner =
    words_per_call (fun () ->
        incr owner;
        for item = 0 to 9 do
          let mode = if item land 1 = 0 then Lock_mgr.Shared else Lock_mgr.Exclusive in
          ignore (Sys.opaque_identity (Lock_mgr.acquire lm ~owner:!owner item mode))
        done;
        Lock_mgr.release_all lm ~owner:!owner)
  in
  within "Lock_mgr acquire + release_all, per lock" ~budget:6.4 (per_owner /. 10.0)

let store () = Store.create ~site:0 (List.init 200 Fun.id)

(* 4 words before, 0 after: the budget leaves room only for rounding. *)
let test_store_read () =
  let s = store () in
  let item = ref 0 in
  within "Store.read" ~budget:0.01
    (words_per_call (fun () ->
         item := (!item + 7) mod 200;
         ignore (Sys.opaque_identity (Store.read s !item))))

(* 13 words before, 4 after: the new value itself. *)
let test_store_apply () =
  let s = store () in
  let item = ref 0 in
  within "Store.apply" ~budget:4.6
    (words_per_call (fun () ->
         item := (!item + 7) mod 200;
         Store.apply s !item ~writer:1 ()))

(* One process blocking [calls] times; charged per delay, scheduling and
   resumption included: 20 words before, 13 after. The effect runtime's
   own allocation differs between compiler releases, so this budget is
   pinned on OCaml 5.1 only and reported elsewhere. *)
let test_sim_delay () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 1.0);
  Sim.run sim;
  let before = Gc.minor_words () in
  Sim.spawn sim (fun () ->
      for _ = 1 to calls do
        Sim.delay 1.0
      done);
  Sim.run sim;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  if String.starts_with ~prefix:"5.1." Sys.ocaml_version then within "Sim.delay" ~budget:14.9 words
  else Printf.printf "%-40s %7.2f words (budget pinned on OCaml 5.1 only)\n" "Sim.delay" words

let () =
  Alcotest.run "alloc"
    [
      ( "budget",
        [
          Alcotest.test_case "generator" `Quick test_gen_with;
          Alcotest.test_case "lock acquire + release" `Quick test_acquire_release;
          Alcotest.test_case "store read" `Quick test_store_read;
          Alcotest.test_case "store apply" `Quick test_store_apply;
          Alcotest.test_case "sim delay" `Quick test_sim_delay;
        ] );
    ]
