(* Tests for the strict-2PL lock manager: compatibility, FIFO granting,
   upgrades, both deadlock policies and invariants. *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Lock_mgr = Repdb_lock.Lock_mgr

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Lock_mgr.Granted -> Fmt.string ppf "granted"
      | Lock_mgr.Timed_out -> Fmt.string ppf "timed-out"
      | Lock_mgr.Deadlock_victim -> Fmt.string ppf "victim")
    ( = )

let with_lm ?(policy = `Timeout 50.0) f =
  let sim = Sim.create () in
  let lm = Lock_mgr.create ~sim ~policy () in
  f sim lm;
  Sim.run sim;
  (sim, lm)

let test_shared_compatible () =
  let _, lm =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            Alcotest.check outcome "o1 S" Lock_mgr.Granted (Lock_mgr.acquire lm ~owner:1 0 Shared);
            Alcotest.check outcome "o2 S" Lock_mgr.Granted (Lock_mgr.acquire lm ~owner:2 0 Shared)))
  in
  checki "two holders" 2 (List.length (Lock_mgr.holders lm 0))

let test_exclusive_blocks () =
  let log = ref [] in
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            Sim.delay 10.0;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            let o = Lock_mgr.acquire lm ~owner:2 0 Exclusive in
            log := (Sim.now sim, o) :: !log))
  in
  Alcotest.(check (list (pair (float 1e-9) outcome)))
    "granted at release" [ (10.0, Lock_mgr.Granted) ] !log

let test_fifo_no_barging () =
  (* X waits behind S; a later S must not overtake the waiting X. *)
  let order = ref [] in
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Shared);
            Sim.delay 10.0;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            ignore (Lock_mgr.acquire lm ~owner:2 0 Exclusive);
            order := 2 :: !order;
            Sim.delay 5.0;
            Lock_mgr.release_all lm ~owner:2);
        Sim.spawn sim (fun () ->
            Sim.delay 2.0;
            ignore (Lock_mgr.acquire lm ~owner:3 0 Shared);
            order := 3 :: !order))
  in
  Alcotest.(check (list int)) "X before the later S" [ 2; 3 ] (List.rev !order)

let test_reentrant () =
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            Alcotest.check outcome "S" Lock_mgr.Granted (Lock_mgr.acquire lm ~owner:1 0 Shared);
            Alcotest.check outcome "S again" Lock_mgr.Granted (Lock_mgr.acquire lm ~owner:1 0 Shared);
            Alcotest.check outcome "upgrade" Lock_mgr.Granted
              (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            Alcotest.check outcome "X re-entrant" Lock_mgr.Granted
              (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            Alcotest.check outcome "S under X" Lock_mgr.Granted
              (Lock_mgr.acquire lm ~owner:1 0 Shared);
            checkb "holds X" true (Lock_mgr.holds lm ~owner:1 0 = Some Exclusive)))
  in
  ()

let test_upgrade_waits_for_other_readers () =
  let log = ref [] in
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Shared);
            Sim.delay 10.0;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:2 0 Shared);
            Sim.delay 1.0;
            let o = Lock_mgr.acquire lm ~owner:2 0 Exclusive in
            log := (Sim.now sim, o) :: !log))
  in
  Alcotest.(check (list (pair (float 1e-9) outcome)))
    "upgrade granted when sole holder" [ (10.0, Lock_mgr.Granted) ] !log

let test_upgrade_priority () =
  (* An upgrader jumps ahead of a queued X request. *)
  let order = ref [] in
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Shared);
            Sim.delay 5.0;
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            order := 1 :: !order;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            ignore (Lock_mgr.acquire lm ~owner:2 0 Exclusive);
            order := 2 :: !order;
            Lock_mgr.release_all lm ~owner:2))
  in
  Alcotest.(check (list int)) "upgrader first" [ 1; 2 ] (List.rev !order)

let test_timeout_policy () =
  let log = ref [] in
  let _ =
    with_lm ~policy:(`Timeout 50.0) (fun sim lm ->
        Sim.spawn sim (fun () -> ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive));
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            let o = Lock_mgr.acquire lm ~owner:2 0 Exclusive in
            log := (Sim.now sim, o) :: !log))
  in
  Alcotest.(check (list (pair (float 1e-9) outcome)))
    "timed out after 50ms" [ (51.0, Lock_mgr.Timed_out) ] !log

let test_deadlock_detection () =
  (* 1 holds a, wants b; 2 holds b, wants a. Victim = latest arrival (2). *)
  let results = ref [] in
  let _ =
    with_lm ~policy:(`Detect None) (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            Sim.delay 2.0;
            let o = Lock_mgr.acquire lm ~owner:1 1 Exclusive in
            results := (1, o) :: !results;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            ignore (Lock_mgr.acquire lm ~owner:2 1 Exclusive);
            Sim.delay 2.0;
            let o = Lock_mgr.acquire lm ~owner:2 0 Exclusive in
            results := (2, o) :: !results;
            Lock_mgr.release_all lm ~owner:2))
  in
  let sorted = List.sort compare !results in
  Alcotest.(check (list (pair int outcome)))
    "latest arrival is the victim"
    [ (1, Lock_mgr.Granted); (2, Lock_mgr.Deadlock_victim) ]
    sorted

let test_detect_overlapping_cycles () =
  (* Two waits-for cycles sharing the same start owner: 1 holds X on item 0;
     2 and 3 hold item 1 shared and both wait for X on 0; 1 then requests X
     on 1, closing 1->2->1 and 1->3->1 simultaneously. Victimising the
     latest-arriving waiter (1, once) must break both cycles at once. *)
  let results = ref [] in
  let _, lm =
    with_lm ~policy:(`Detect None) (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            Sim.delay 3.0;
            let o = Lock_mgr.acquire lm ~owner:1 1 Exclusive in
            results := (1, o) :: !results;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            ignore (Lock_mgr.acquire lm ~owner:2 1 Shared);
            Sim.delay 0.5;
            let o = Lock_mgr.acquire lm ~owner:2 0 Exclusive in
            results := (2, o) :: !results;
            Lock_mgr.release_all lm ~owner:2);
        Sim.spawn sim (fun () ->
            Sim.delay 2.0;
            ignore (Lock_mgr.acquire lm ~owner:3 1 Shared);
            Sim.delay 0.5;
            let o = Lock_mgr.acquire lm ~owner:3 0 Exclusive in
            results := (3, o) :: !results;
            Lock_mgr.release_all lm ~owner:3))
  in
  Alcotest.(check (list (pair int outcome)))
    "single victim breaks both cycles"
    [ (1, Lock_mgr.Deadlock_victim); (2, Lock_mgr.Granted); (3, Lock_mgr.Granted) ]
    (List.sort compare !results);
  checki "exactly one deadlock abort" 1 (Lock_mgr.stats lm).Lock_mgr.deadlock_aborts;
  checki "table drained" 0 (Lock_mgr.locks_held lm)

let test_abort_waiter () =
  let log = ref [] in
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () -> ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive));
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            let o = Lock_mgr.acquire lm ~owner:2 0 Exclusive in
            log := (Sim.now sim, o) :: !log);
        Sim.after sim 5.0 (fun () -> checkb "woken" true (Lock_mgr.abort_waiter lm ~owner:2));
        Sim.after sim 6.0 (fun () -> checkb "no-op when not waiting" false (Lock_mgr.abort_waiter lm ~owner:2)))
  in
  Alcotest.(check (list (pair (float 1e-9) outcome)))
    "aborted early" [ (5.0, Lock_mgr.Deadlock_victim) ] !log

let test_abort_waiter_holder_not_waiting () =
  (* abort_waiter on an owner that holds locks but has no pending wait must
     be a refusing no-op: false, with every lock intact. *)
  let _, lm =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            ignore (Lock_mgr.acquire lm ~owner:1 1 Shared));
        Sim.after sim 1.0 (fun () ->
            checkb "holder with no pending wait" false (Lock_mgr.abort_waiter lm ~owner:1)))
  in
  checki "locks intact" 2 (Lock_mgr.locks_held lm);
  checkb "still holds X" true (Lock_mgr.holds lm ~owner:1 0 = Some Exclusive);
  checkb "still holds S" true (Lock_mgr.holds lm ~owner:1 1 = Some Shared)

let test_waiting_for () =
  let _ =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () -> ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive));
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            ignore (Lock_mgr.acquire lm ~owner:2 0 Exclusive));
        Sim.spawn sim (fun () ->
            Sim.delay 2.0;
            ignore (Lock_mgr.acquire lm ~owner:3 0 Shared));
        Sim.after sim 3.0 (fun () ->
            Alcotest.(check (list int)) "waits for holder" [ 1 ] (Lock_mgr.waiting_for lm ~owner:2);
            Alcotest.(check (list int))
              "waits for holder and queued-ahead" [ 1; 2 ]
              (Lock_mgr.waiting_for lm ~owner:3);
            Alcotest.(check (list int)) "not waiting" [] (Lock_mgr.waiting_for lm ~owner:1)))
  in
  ()

let test_release_all_clears () =
  let _, lm =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            ignore (Lock_mgr.acquire lm ~owner:1 1 Shared);
            ignore (Lock_mgr.acquire lm ~owner:1 2 Shared);
            Lock_mgr.release_all lm ~owner:1))
  in
  checki "nothing held" 0 (Lock_mgr.locks_held lm);
  checkb "holds nothing" true (Lock_mgr.holds lm ~owner:1 0 = None)

let test_stats () =
  let _, lm =
    with_lm (fun sim lm ->
        Sim.spawn sim (fun () ->
            ignore (Lock_mgr.acquire lm ~owner:1 0 Exclusive);
            Sim.delay 100.0;
            Lock_mgr.release_all lm ~owner:1);
        Sim.spawn sim (fun () ->
            Sim.delay 1.0;
            ignore (Lock_mgr.acquire lm ~owner:2 0 Exclusive)))
  in
  let s = Lock_mgr.stats lm in
  checki "acquires" 1 s.Lock_mgr.acquires;
  checki "waits" 1 s.Lock_mgr.waits;
  checki "timeouts" 1 s.Lock_mgr.timeouts

(* Property: random transactions acquiring random locks under the timeout
   policy always terminate with an empty lock table after release_all. *)
let prop_random_workload_drains =
  QCheck2.Test.make ~name:"random lock workload drains cleanly" ~count:40
    QCheck2.Gen.(pair int (int_range 2 8))
    (fun (seed, n_txns) ->
      let sim = Sim.create () in
      let lm = Lock_mgr.create ~sim ~policy:(`Timeout 20.0) () in
      let rng = Rng.create seed in
      let finished = ref 0 in
      for owner = 1 to n_txns do
        let items = List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng 6) in
        let modes = List.map (fun _ -> if Rng.bool rng 0.5 then Lock_mgr.Shared else Lock_mgr.Exclusive) items in
        Sim.spawn sim (fun () ->
            Sim.delay (Rng.float rng *. 10.0);
            let ok =
              List.for_all2
                (fun item mode ->
                  Sim.delay (Rng.float rng *. 5.0);
                  Lock_mgr.acquire lm ~owner item mode = Lock_mgr.Granted)
                items modes
            in
            ignore ok;
            Lock_mgr.release_all lm ~owner;
            incr finished)
      done;
      Sim.run sim;
      !finished = n_txns && Lock_mgr.locks_held lm = 0)

(* --- lock manager vs. list-based model ------------------------------------ *)

(* A transparent model of the lock manager: per-item [(owner * mode)] holder
   lists (most recent first), per-item request lists (next to grant first),
   per-owner [(item * mode)] hold lists — the representation the
   one-exclusive-owner-or-sharers entries replaced. Deadlock handling is
   the same latest-arrival victim search over the same waits-for edges. *)
module Model = struct
  open Lock_mgr

  type req = {
    owner : owner;
    mode : mode;
    item : item;
    upgrade : bool;
    arrival : int;
    mutable live : bool;
    mutable resume : outcome -> unit;
  }

  type t = {
    sim : Sim.t;
    policy : policy;
    holding : (owner * mode) list array;
    queue : req list array;
    held : (owner, (item * mode) list) Hashtbl.t;
    waiting : (owner, req) Hashtbl.t;
    mutable arrivals : int;
  }

  let create sim policy ~n_items =
    {
      sim;
      policy;
      holding = Array.make n_items [];
      queue = Array.make n_items [];
      held = Hashtbl.create 8;
      waiting = Hashtbl.create 8;
      arrivals = 0;
    }

  let compatible mode holding =
    match mode with
    | Shared -> List.for_all (fun (_, m) -> m = Shared) holding
    | Exclusive -> holding = []

  let record_hold t owner item mode =
    let l = Option.value ~default:[] (Hashtbl.find_opt t.held owner) in
    Hashtbl.replace t.held owner ((item, mode) :: l)

  let rec service t item =
    match t.queue.(item) with
    | [] -> ()
    | req :: rest ->
        let grantable =
          if req.upgrade then t.holding.(item) = [ (req.owner, Shared) ]
          else compatible req.mode t.holding.(item)
        in
        if grantable then begin
          t.holding.(item) <-
            (if req.upgrade then [ (req.owner, Exclusive) ]
             else (req.owner, req.mode) :: t.holding.(item));
          record_hold t req.owner item req.mode;
          t.queue.(item) <- rest;
          req.live <- false;
          Hashtbl.remove t.waiting req.owner;
          req.resume Granted;
          service t item
        end

  let fail t req outcome =
    if req.live then begin
      req.live <- false;
      Hashtbl.remove t.waiting req.owner;
      t.queue.(req.item) <- List.filter (fun r -> r != req) t.queue.(req.item);
      req.resume outcome;
      service t req.item
    end

  let waiting_for t ~owner =
    match Hashtbl.find_opt t.waiting owner with
    | None -> []
    | Some req ->
        let rec ahead = function [] -> [] | r :: rest -> if r == req then [] else r.owner :: ahead rest in
        let holders = List.map fst t.holding.(req.item) in
        List.sort_uniq compare
          (List.filter (fun o -> o <> owner) (holders @ ahead t.queue.(req.item)))

  let find_cycle t start =
    let on_stack = Hashtbl.create 16 and visited = Hashtbl.create 16 in
    let exception Cycle of owner list in
    let rec dfs stack o =
      if Hashtbl.mem on_stack o then begin
        let rec cut acc = function [] -> acc | x :: rest -> if x = o then x :: acc else cut (x :: acc) rest in
        raise (Cycle (cut [] stack))
      end;
      if not (Hashtbl.mem visited o) then begin
        Hashtbl.replace visited o ();
        Hashtbl.replace on_stack o ();
        List.iter (dfs (o :: stack)) (waiting_for t ~owner:o);
        Hashtbl.remove on_stack o
      end
    in
    try
      dfs [] start;
      None
    with Cycle nodes -> Some nodes

  let rec resolve_deadlocks t start =
    match find_cycle t start with
    | None -> ()
    | Some nodes -> (
        match List.filter_map (Hashtbl.find_opt t.waiting) nodes with
        | [] -> ()
        | first :: rest ->
            let victim = List.fold_left (fun a r -> if r.arrival > a.arrival then r else a) first rest in
            fail t victim Deadlock_victim;
            if victim.owner <> start then resolve_deadlocks t start)

  let wait t ~owner item mode ~upgrade =
    t.arrivals <- t.arrivals + 1;
    let req =
      { owner; mode; item; upgrade; arrival = t.arrivals; live = true; resume = ignore }
    in
    t.queue.(item) <- (if upgrade then req :: t.queue.(item) else t.queue.(item) @ [ req ]);
    Hashtbl.replace t.waiting owner req;
    Sim.suspend (fun resume ->
        req.resume <- resume;
        match t.policy with
        | `Timeout d -> Sim.after t.sim d (fun () -> fail t req Timed_out)
        | `Detect fallback ->
            Option.iter (fun d -> Sim.after t.sim d (fun () -> fail t req Timed_out)) fallback;
            resolve_deadlocks t owner)

  let acquire t ~owner item mode =
    match (List.assoc_opt owner t.holding.(item), mode) with
    | Some Exclusive, _ | Some Shared, Shared -> Granted
    | Some Shared, Exclusive ->
        if t.holding.(item) = [ (owner, Shared) ] then begin
          t.holding.(item) <- [ (owner, Exclusive) ];
          record_hold t owner item Exclusive;
          Granted
        end
        else wait t ~owner item Exclusive ~upgrade:true
    | None, _ ->
        if t.queue.(item) = [] && compatible mode t.holding.(item) then begin
          t.holding.(item) <- (owner, mode) :: t.holding.(item);
          record_hold t owner item mode;
          Granted
        end
        else wait t ~owner item mode ~upgrade:false

  let release_all t ~owner =
    Option.iter (fun req -> fail t req Deadlock_victim) (Hashtbl.find_opt t.waiting owner);
    match Hashtbl.find_opt t.held owner with
    | None -> ()
    | Some l ->
        Hashtbl.remove t.held owner;
        List.iter
          (fun (item, _) ->
            t.holding.(item) <- List.filter (fun (o, _) -> o <> owner) t.holding.(item);
            service t item)
          l

  let holds t ~owner item = List.assoc_opt owner t.holding.(item)
  let locks_held t = Array.fold_left (fun acc h -> acc + List.length h) 0 t.holding
end

(* The operations a script drives, so one runner drives the lock manager and
   the model alike. *)
type lock_ops = {
  acquire : owner:int -> int -> Lock_mgr.mode -> Lock_mgr.outcome;
  release_all : owner:int -> unit;
  holders : int -> (int * Lock_mgr.mode) list;
  holds : owner:int -> int -> Lock_mgr.mode option;
  waiting_for : owner:int -> int list;
  locks_held : unit -> int;
}

type action = Acq of int * Lock_mgr.mode | Release | Pause of int

let script_items = 3

let mode_s = function Lock_mgr.Shared -> "S" | Lock_mgr.Exclusive -> "X"

let outcome_s = function
  | Lock_mgr.Granted -> "granted"
  | Lock_mgr.Timed_out -> "timed-out"
  | Lock_mgr.Deadlock_victim -> "victim"

let ints l = String.concat "," (List.map string_of_int l)

(* Every observable of the table: per-item holders in order, per-owner
   held modes and waits-for sets, and the total lock count. *)
let snapshot ops ~n_owners =
  let b = Buffer.create 128 in
  for item = 0 to script_items - 1 do
    Printf.bprintf b "i%d[%s] " item
      (String.concat "," (List.map (fun (o, m) -> Printf.sprintf "%d%s" o (mode_s m)) (ops.holders item)))
  done;
  for owner = 1 to n_owners do
    Printf.bprintf b "o%d(" owner;
    for item = 0 to script_items - 1 do
      Buffer.add_string b (match ops.holds ~owner item with None -> "-" | Some m -> mode_s m)
    done;
    Printf.bprintf b " w%s) " (ints (ops.waiting_for ~owner))
  done;
  Printf.bprintf b "n%d" (ops.locks_held ());
  Buffer.contents b

(* Run one process per owner over its script: a failed acquire aborts
   (releases everything) and the script goes on; every step is logged with
   the simulated time and a full snapshot, so grant order, outcomes and
   every query are compared step by step. *)
let run_script make_ops scripts =
  let sim = Sim.create () in
  let ops = make_ops sim in
  let n_owners = List.length scripts in
  let log = ref [] in
  let note owner what =
    log := Printf.sprintf "%g o%d %s | %s" (Sim.now sim) owner what (snapshot ops ~n_owners) :: !log
  in
  List.iteri
    (fun i (start, actions) ->
      let owner = i + 1 in
      Sim.spawn sim (fun () ->
          Sim.delay (float_of_int start);
          List.iter
            (function
              | Acq (item, mode) ->
                  let r = ops.acquire ~owner item mode in
                  note owner (Printf.sprintf "%s%d %s" (mode_s mode) item (outcome_s r));
                  if r <> Lock_mgr.Granted then begin
                    ops.release_all ~owner;
                    note owner "abort"
                  end
              | Release ->
                  ops.release_all ~owner;
                  note owner "release"
              | Pause d -> Sim.delay (float_of_int d))
            actions;
          ops.release_all ~owner;
          note owner "end"))
    scripts;
  Sim.run sim;
  List.rev !log

let lock_mgr_ops policy sim =
  let lm = Lock_mgr.create ~sim ~policy () in
  {
    acquire = (fun ~owner item mode -> Lock_mgr.acquire lm ~owner item mode);
    release_all = (fun ~owner -> Lock_mgr.release_all lm ~owner);
    holders = Lock_mgr.holders lm;
    holds = (fun ~owner item -> Lock_mgr.holds lm ~owner item);
    waiting_for = (fun ~owner -> Lock_mgr.waiting_for lm ~owner);
    locks_held = (fun () -> Lock_mgr.locks_held lm);
  }

let model_ops policy sim =
  let m = Model.create sim policy ~n_items:script_items in
  {
    acquire = (fun ~owner item mode -> Model.acquire m ~owner item mode);
    release_all = (fun ~owner -> Model.release_all m ~owner);
    holders = (fun item -> m.Model.holding.(item));
    holds = (fun ~owner item -> Model.holds m ~owner item);
    waiting_for = (fun ~owner -> Model.waiting_for m ~owner);
    locks_held = (fun () -> Model.locks_held m);
  }

let gen_action =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun item x -> Acq (item, if x then Lock_mgr.Exclusive else Lock_mgr.Shared))
            (int_range 0 (script_items - 1))
            bool );
        (1, pure Release);
        (2, map (fun d -> Pause d) (int_range 1 4));
      ])

let policies = [| `Timeout 5.0; `Detect None; `Detect (Some 7.0) |]

let gen_lock_script =
  QCheck2.Gen.(
    pair
      (int_range 0 (Array.length policies - 1))
      (int_range 2 4 >>= fun n ->
       list_repeat n (pair (int_range 0 3) (list_size (int_range 1 8) gen_action))))

let print_lock_script (policy, scripts) =
  let action = function
    | Acq (item, mode) -> Printf.sprintf "%s%d" (mode_s mode) item
    | Release -> "rel"
    | Pause d -> Printf.sprintf "+%d" d
  in
  Printf.sprintf "policy %d; %s" policy
    (String.concat "; "
       (List.mapi
          (fun i (start, actions) ->
            Printf.sprintf "o%d@%d: %s" (i + 1) start (String.concat " " (List.map action actions)))
          scripts))

let prop_matches_model =
  QCheck2.Test.make ~name:"lock manager matches list-based model" ~count:400
    ~print:print_lock_script gen_lock_script (fun (policy, scripts) ->
      let policy = policies.(policy) in
      let got = run_script (lock_mgr_ops policy) scripts in
      let want = run_script (model_ops policy) scripts in
      if got <> want then
        QCheck2.Test.fail_reportf "lock manager:\n%s\nmodel:\n%s" (String.concat "\n" got)
          (String.concat "\n" want)
      else true)

let () =
  Alcotest.run "lock"
    [
      ( "lock_mgr",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
          Alcotest.test_case "fifo no barging" `Quick test_fifo_no_barging;
          Alcotest.test_case "re-entrant" `Quick test_reentrant;
          Alcotest.test_case "upgrade waits" `Quick test_upgrade_waits_for_other_readers;
          Alcotest.test_case "upgrade priority" `Quick test_upgrade_priority;
          Alcotest.test_case "timeout policy" `Quick test_timeout_policy;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "overlapping cycles one victim" `Quick test_detect_overlapping_cycles;
          Alcotest.test_case "abort waiter" `Quick test_abort_waiter;
          Alcotest.test_case "abort waiter on holder" `Quick test_abort_waiter_holder_not_waiting;
          Alcotest.test_case "waiting_for" `Quick test_waiting_for;
          Alcotest.test_case "release_all" `Quick test_release_all_clears;
          Alcotest.test_case "stats" `Quick test_stats;
          QCheck_alcotest.to_alcotest prop_random_workload_drains;
          QCheck_alcotest.to_alcotest prop_matches_model;
        ] );
    ]
