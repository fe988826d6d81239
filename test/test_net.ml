(* Tests for the reliable FIFO network. *)

module Sim = Repdb_sim.Sim
module Network = Repdb_net.Network
module Fault = Repdb_fault.Fault

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let make ?(n = 3) ?(latency = fun _ _ -> 1.0) () =
  let sim = Sim.create () in
  (sim, Network.create ~sim ~n_sites:n ~latency ())

let test_delivery_latency () =
  let sim, net = make () in
  let arrived = ref (-1.0) in
  Network.serve net 1 (fun ~src msg ->
      arrived := Sim.now sim;
      checki "src" 0 src;
      checki "payload" 42 msg);
  Sim.after sim 5.0 (fun () -> Network.send net ~src:0 ~dst:1 42);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "arrives after latency" 6.0 !arrived

(* Site 2 receives through a handler, site 1 through [Network.serve]: both
   see the pair's send order. *)
let test_fifo_per_pair () =
  let sim, net = make () in
  let got = ref [] and served = ref [] in
  Network.set_handler net 2 (fun ~src:_ v -> got := v :: !got);
  Network.serve net 1 (fun ~src v -> served := (src, v) :: !served);
  Sim.spawn sim (fun () ->
      for i = 1 to 20 do
        Network.send net ~src:0 ~dst:2 i;
        Network.send net ~src:0 ~dst:1 i;
        Sim.delay 0.1
      done);
  Sim.run sim;
  let sent = List.init 20 (fun i -> i + 1) in
  Alcotest.(check (list int)) "FIFO" sent (List.rev !got);
  Alcotest.(check (list (pair int int)))
    "FIFO through serve" (List.map (fun i -> (0, i)) sent) (List.rev !served)

let test_same_instant_send_order () =
  (* Two sends at the same simulated instant to the same destination arrive
     in send order: their delivery events carry equal times, so ordering
     rests entirely on the heap's sequence tiebreaker. *)
  let sim, net = make () in
  let got = ref [] in
  Network.serve net 2 (fun ~src v -> got := (src, v) :: !got);
  Sim.after sim 3.0 (fun () ->
      Network.send net ~src:0 ~dst:2 1;
      Network.send net ~src:0 ~dst:2 2;
      Network.send net ~src:1 ~dst:2 3;
      Network.send net ~src:0 ~dst:2 4);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "same-instant sends keep order"
    [ (0, 1); (0, 2); (1, 3); (0, 4) ]
    (List.rev !got)

let test_asymmetric_latency () =
  (* A slow link delays only its own pair — the setup of Example 1.1. *)
  let latency src dst = if src = 0 && dst = 2 then 100.0 else 1.0 in
  let sim, net = make ~latency () in
  let order = ref [] in
  Network.serve net 2 (fun ~src () -> order := src :: !order);
  (* 0 sends first, 1 second, but 1's message overtakes on the fast link. *)
  Network.send net ~src:0 ~dst:2 ();
  Sim.after sim 5.0 (fun () -> Network.send net ~src:1 ~dst:2 ());
  Sim.run sim;
  Alcotest.(check (list int)) "fast link overtakes" [ 1; 0 ] (List.rev !order)

let test_handler_routing () =
  let sim, net = make () in
  let seen = ref [] in
  Network.set_handler net 1 (fun ~src msg -> seen := (src, msg) :: !seen);
  Network.send net ~src:0 ~dst:1 7;
  Network.send net ~src:2 ~dst:1 8;
  Sim.run sim;
  Alcotest.(check (list (pair int int))) "handled" [ (0, 7); (2, 8) ] (List.rev !seen);
  Alcotest.check_raises "serve after handler"
    (Invalid_argument "Network.serve: site has a custom handler") (fun () ->
      Network.serve net 1 (fun ~src:_ _ -> ()))

let test_counting () =
  let sim, net = make () in
  for _ = 1 to 4 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Sim.run sim;
  checki "messages_sent" 4 (Network.messages_sent net)

let test_errors () =
  let _, net = make () in
  Alcotest.check_raises "self send" (Invalid_argument "Network.send: src = dst") (fun () ->
      Network.send net ~src:1 ~dst:1 0);
  Alcotest.check_raises "out of range" (Invalid_argument "Network: site out of range") (fun () ->
      Network.send net ~src:0 ~dst:7 0);
  checkb "latency exposed" true (Network.latency net ~src:0 ~dst:1 = 1.0);
  checki "n_sites" 3 (Network.n_sites net)

(* A lossy, slow window over the first 40 ms: drops are retransmitted and
   arrivals clamped, so a link's deliveries finish out of step with its
   sends. *)
let faulty ~n ~seed =
  let window ~drop_prob ~extra_delay =
    { Fault.src = -1; dst = -1; from_t = 0.0; until_t = 40.0; drop_prob; extra_delay }
  in
  Fault.injector ~n_sites:n ~seed
    {
      Fault.empty with
      windows = [ window ~drop_prob:0.5 ~extra_delay:0.0; window ~drop_prob:0.0 ~extra_delay:3.0 ];
      rto = 2.0;
    }

(* Sends a fresh message and returns a weak pointer to it; nothing else of
   the caller's refers to the message. *)
let[@inline never] send_weak net =
  let msg = ref 42 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some msg);
  Network.send net ~src:0 ~dst:1 msg;
  w

(* Once delivered and taken, a message is unreachable from the network: a
   full major collection clears a weak pointer to it. Through a server and
   through a handler, over a link with and without faults, on the heap
   (1 ms) and on the lane (0 ms). *)
let test_no_retention () =
  List.iter
    (fun (label, latency, injector, serve) ->
      let sim = Sim.create () in
      let net = Network.create ~sim ~n_sites:2 ~latency:(fun _ _ -> latency) ?injector () in
      let got = ref 0 in
      let take ~src:_ msg = got := !got + !msg in
      if serve then Network.serve net 1 take else Network.set_handler net 1 take;
      let w = send_weak net in
      Sim.run sim;
      checki (label ^ ": delivered") 42 !got;
      Gc.full_major ();
      checkb (label ^ ": unreachable") false (Weak.check w 0);
      (* The network is still live, so whatever it holds was scanned. *)
      checki (label ^ ": sent") 1 (Network.messages_sent (Sys.opaque_identity net)))
    [
      ("serve", 1.0, None, true);
      ("handler", 1.0, None, false);
      ("serve, faulty", 1.0, Some (faulty ~n:2 ~seed:3), true);
      ("handler, faulty", 1.0, Some (faulty ~n:2 ~seed:3), false);
      ("serve, 0 ms", 0.0, None, true);
      ("handler, 0 ms", 0.0, None, false);
    ]

(* Random links: per-pair latencies (0 ms takes the lane), sends at random
   instants with ties, servers that block between messages, and an optional
   lossy, slow window. Every pair delivers each message once, in send order,
   whether its destination serves (even sites) or handles (odd sites), and
   nothing is left in flight or queued. A message arrives when its
   transmission completes, as a twin injector fed the same sends plans it,
   but never before an earlier message of its pair: a handler sees it at
   that instant, a server no earlier. *)
let prop_fifo =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 4 in
      let* lat = array_size (return (n * n)) (oneofl [ 0.0; 0.5; 1.0; 3.0; 10.0 ]) in
      let* sends =
        list_size (int_range 0 60) (triple (int_range 0 40) (int_range 0 (n - 1)) (int_range 1 (n - 1)))
      in
      let* block = oneofl [ 0.0; 0.5; 2.0 ] in
      let* seed = opt (int_range 0 1000) in
      return (n, lat, sends, block, seed))
  in
  let print (n, _, sends, block, seed) =
    Printf.sprintf "n=%d sends=%d block=%g seed=%s" n (List.length sends) block
      (match seed with Some s -> string_of_int s | None -> "none")
  in
  QCheck.Test.make ~name:"every pair delivers once, in send order" ~count:300
    (QCheck.make ~print gen) (fun (n, lat, sends, block, seed) ->
      let sim = Sim.create () in
      let injector = Option.map (fun seed -> faulty ~n ~seed) seed in
      let twin = Option.map (fun seed -> faulty ~n ~seed) seed in
      let net = Network.create ~sim ~n_sites:n ~latency:(fun s d -> lat.((s * n) + d)) ?injector () in
      let sent = Array.make (n * n) [] and got = Array.make (n * n) [] in
      let due = Array.make (List.length sends) nan and clear = Array.make (n * n) 0.0 in
      let on_time = ref true in
      let take dst ~src id =
        got.((src * n) + dst) <- id :: got.((src * n) + dst);
        let now = Sim.now sim in
        if not (if dst land 1 = 0 then now >= due.(id) else now = due.(id)) then on_time := false
      in
      for dst = 0 to n - 1 do
        if dst land 1 = 0 then
          Network.serve net dst (fun ~src id ->
              take dst ~src id;
              Sim.delay block)
        else Network.set_handler net dst (take dst)
      done;
      List.iteri
        (fun id (at, src, hop) ->
          let dst = (src + hop) mod n in
          let pair = (src * n) + dst in
          Sim.at sim (float_of_int at /. 2.0) (fun () ->
              let now = Sim.now sim in
              (due.(id) <-
                 match twin with
                 | None -> now +. lat.(pair)
                 | Some inj ->
                     let tm = Fault.transmit inj ~src ~dst ~now in
                     clear.(pair) <- Float.max (tm.depart +. lat.(pair) +. tm.extra) clear.(pair);
                     clear.(pair));
              sent.(pair) <- id :: sent.(pair);
              Network.send net ~src ~dst id))
        sends;
      Sim.run sim;
      sent = got && !on_time
      && Network.in_flight_matching net ~f:(fun ~src:_ ~dst:_ -> true) = 0
      && List.for_all (fun dst -> Network.queued net dst = 0) (List.init n Fun.id))

let () =
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "delivery latency" `Quick test_delivery_latency;
          Alcotest.test_case "fifo per pair" `Quick test_fifo_per_pair;
          Alcotest.test_case "same-instant send order" `Quick test_same_instant_send_order;
          Alcotest.test_case "asymmetric latency" `Quick test_asymmetric_latency;
          Alcotest.test_case "handler routing" `Quick test_handler_routing;
          Alcotest.test_case "counting" `Quick test_counting;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "no retention after delivery" `Quick test_no_retention;
          QCheck_alcotest.to_alcotest prop_fifo;
        ] );
    ]
