module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Profile = Repdb_obs.Profile
module Fault = Repdb_fault.Fault

type 'a target = Inbox of (int * 'a) Mailbox.t | Handler of (src:int -> 'a -> unit)

type 'a t = {
  sim : Sim.t;
  n : int;
  delays : float array array;
  mutable targets : 'a target array;
  mutable sent : int;
  mutable dropped : int;
  cat : int; (* profiler category for delivery events *)
  arity : 'a -> int;
      (* Logical updates carried by one physical message. Always 1 except on
         batched nets, where counters track updates rather than envelopes so
         the message metrics stay comparable across batch sizes. *)
  trace : Trace.t;
  describe : ('a -> string * int) option;
  sent_ctr : Stats.counter option;
  recv_ctr : Stats.counter option;
  drop_ctr : Stats.counter option;
  injector : Fault.injector option;
  inflight_pair : int array;
      (* Per ordered pair (src * n + dst): units accepted minus units
         delivered, so the healer can drain "everything except traffic parked
         behind a crashed or partitioned pair". *)
  fifo_clear : float array array;
      (* Per ordered pair: latest delivery instant scheduled so far. Faulty
         transmissions finish at irregular times, so later sends clamp to this
         to preserve the FIFO-channel guarantee. *)
}

let create ~sim ~n_sites ~latency ?(arity = fun _ -> 1) ?(trace = Trace.disabled) ?describe
    ?stats ?injector () =
  if n_sites < 1 then invalid_arg "Network.create: need at least one site";
  let delays =
    Array.init n_sites (fun src ->
        Array.init n_sites (fun dst ->
            let d = latency src dst in
            if d < 0.0 then invalid_arg "Network.create: negative latency";
            d))
  in
  {
    sim;
    n = n_sites;
    delays;
    targets = Array.init n_sites (fun _ -> Inbox (Mailbox.create ()));
    sent = 0;
    dropped = 0;
    cat = Profile.cat (Sim.profile sim) "net";
    arity;
    trace;
    describe;
    sent_ctr = Option.map (fun s -> Stats.counter s "msg.sent") stats;
    recv_ctr = Option.map (fun s -> Stats.counter s "msg.recv") stats;
    drop_ctr =
      (match injector with
      | Some _ -> Option.map (fun s -> Stats.counter s "msg.drop") stats
      | None -> None);
    injector;
    inflight_pair = Array.make (n_sites * n_sites) 0;
    fifo_clear = Array.init n_sites (fun _ -> Array.make n_sites 0.0);
  }

let n_sites t = t.n

let check t v = if v < 0 || v >= t.n then invalid_arg "Network: site out of range"

let describe_msg t msg = match t.describe with Some d -> d msg | None -> ("msg", 0)

let reachable t ~src ~dst =
  check t src;
  check t dst;
  match t.injector with
  | None -> true
  | Some inj -> Fault.reachable inj ~src ~dst ~at:(Sim.now t.sim)

let send t ~src ~dst msg =
  check t src;
  check t dst;
  if src = dst then invalid_arg "Network.send: src = dst";
  let units = t.arity msg in
  t.sent <- t.sent + units;
  let pair = (src * t.n) + dst in
  t.inflight_pair.(pair) <- t.inflight_pair.(pair) + units;
  (match t.sent_ctr with Some c -> Stats.add c ~site:src units | None -> ());
  let deliver () =
    t.inflight_pair.(pair) <- t.inflight_pair.(pair) - units;
    (match t.recv_ctr with Some c -> Stats.add c ~site:dst units | None -> ());
    match t.targets.(dst) with
    | Inbox mb -> Mailbox.send mb (src, msg)
    | Handler f -> f ~src msg
  in
  let tracing = Trace.on t.trace in
  let kind, size = if tracing then describe_msg t msg else ("msg", 0) in
  if tracing then Trace.record t.trace (Event.Msg_send { src; dst; kind; size });
  match t.injector with
  | None ->
      if tracing then
        Sim.after ~cat:t.cat t.sim t.delays.(src).(dst) (fun () ->
            Trace.record t.trace (Event.Msg_recv { src; dst; kind; size });
            deliver ())
      else Sim.after ~cat:t.cat t.sim t.delays.(src).(dst) deliver
  | Some inj ->
      (* The acked link computes the whole retransmission plan up front (the
         schedule is static, so future attempt outcomes are known); the clamp
         against [fifo_clear] keeps the pair a FIFO channel even though
         retransmitted messages finish late. *)
      let tm = Fault.transmit inj ~src ~dst ~now:(Sim.now t.sim) in
      let n_drops = List.length tm.Fault.dropped in
      if n_drops > 0 then begin
        t.dropped <- t.dropped + n_drops;
        match t.drop_ctr with Some c -> Stats.add c ~site:src n_drops | None -> ()
      end;
      if tracing then
        List.iter
          (fun at ->
            Sim.at ~cat:t.cat t.sim at (fun () ->
                Trace.record t.trace (Event.Msg_drop { src; dst; kind; size })))
          tm.Fault.dropped;
      let arrive = tm.Fault.depart +. t.delays.(src).(dst) +. tm.Fault.extra in
      let arrive = Float.max arrive t.fifo_clear.(src).(dst) in
      t.fifo_clear.(src).(dst) <- arrive;
      if tracing then
        Sim.at ~cat:t.cat t.sim arrive (fun () ->
            Trace.record t.trace (Event.Msg_recv { src; dst; kind; size });
            deliver ())
      else Sim.at ~cat:t.cat t.sim arrive deliver

let messages_dropped t = t.dropped

let inbox t dst =
  check t dst;
  match t.targets.(dst) with
  | Inbox mb -> mb
  | Handler _ -> invalid_arg "Network.inbox: site has a custom handler"

let set_handler t dst f =
  check t dst;
  t.targets.(dst) <- Handler f

let messages_sent t = t.sent

(* Messages accepted by [send] whose delivery event has not yet run. Counts
   one per message regardless of retransmissions (drops are re-sent by the
   acked link until the single delivery fires). *)
let in_flight_matching t ~f =
  let acc = ref 0 in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      let v = t.inflight_pair.((src * t.n) + dst) in
      if v <> 0 && f ~src ~dst then acc := !acc + v
    done
  done;
  !acc

let latency t ~src ~dst =
  check t src;
  check t dst;
  t.delays.(src).(dst)
