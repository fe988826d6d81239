(* Tests for the reliable FIFO network. *)

module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Network = Repdb_net.Network

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let make ?(n = 3) ?(latency = fun _ _ -> 1.0) () =
  let sim = Sim.create () in
  (sim, Network.create ~sim ~n_sites:n ~latency ())

let test_delivery_latency () =
  let sim, net = make () in
  let arrived = ref (-1.0) in
  Sim.spawn sim (fun () ->
      let src, msg = Mailbox.recv (Network.inbox net 1) in
      arrived := Sim.now sim;
      checki "src" 0 src;
      checki "payload" 42 msg);
  Sim.after sim 5.0 (fun () -> Network.send net ~src:0 ~dst:1 42);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "arrives after latency" 6.0 !arrived

let test_fifo_per_pair () =
  let sim, net = make () in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 20 do
        let _, v = Mailbox.recv (Network.inbox net 2) in
        got := v :: !got
      done);
  Sim.spawn sim (fun () ->
      for i = 1 to 20 do
        Network.send net ~src:0 ~dst:2 i;
        Sim.delay 0.1
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO" (List.init 20 (fun i -> i + 1)) (List.rev !got)

let test_same_instant_send_order () =
  (* Two sends at the same simulated instant to the same destination arrive
     in send order: their delivery events carry equal times, so ordering
     rests entirely on the heap's sequence tiebreaker. *)
  let sim, net = make () in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 4 do
        let src, v = Mailbox.recv (Network.inbox net 2) in
        got := (src, v) :: !got
      done);
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
  Sim.spawn sim (fun () ->
      let src, () = Mailbox.recv (Network.inbox net 2) in
      order := src :: !order;
      let src, () = Mailbox.recv (Network.inbox net 2) in
      order := src :: !order);
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
  Alcotest.check_raises "inbox after handler"
    (Invalid_argument "Network.inbox: site has a custom handler") (fun () ->
      ignore (Network.inbox net 1))

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
        ] );
    ]
