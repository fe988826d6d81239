module Sim = Repdb_sim.Sim
module Ring = Repdb_sim.Ring
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Fault = Repdb_fault.Fault

(* A served site's inbox: the sources of the messages delivered and not yet
   taken, in arrival order. Its server parks on [ready] while it is empty. *)
type inbox = { srcs : int Ring.t; ready : Sim.waitq }

(* One ordered pair. [queue] holds its messages not yet taken, in send
   order: a slot holds the message ([Lazy.from_val] wraps only floats and
   lazy values) or, once taken, a suspension never forced. [in_flight]
   (accepted minus delivered) lets the healer drain all but the pairs
   parked behind a crash or partition. *)
type 'a link = {
  src : int;
  dst : int;
  delay : float; (* boxed once here, so a send boxes none *)
  queue : 'a Lazy.t Ring.t;
  mutable in_flight : int;
  deliver : unit -> unit; (* the delivery event: takes the oldest message *)
}

type 'a t = {
  sim : Sim.t;
  n : int;
  handlers : (src:int -> 'a -> unit) option array;
  inboxes : inbox array;
  mutable links : 'a link array; (* per ordered pair, at [src * n + dst] *)
  mutable sent : int;
  mutable dropped : int;
  trace : Trace.t;
  describe : ('a -> string * int) option;
  sent_ctr : Stats.counter option;
  recv_ctr : Stats.counter option;
  drop_ctr : Stats.counter option;
  injector : Fault.injector option;
  fifo_clear : float array;
      (* Per ordered pair: the latest delivery instant scheduled so far.
         Faulty transmissions finish at irregular times, so later sends
         clamp to this to keep the link FIFO. *)
}

let deliver t l =
  l.in_flight <- l.in_flight - 1;
  (match t.recv_ctr with Some c -> Stats.incr c ~site:l.dst | None -> ());
  match t.handlers.(l.dst) with
  | Some f -> f ~src:l.src (Lazy.force (Ring.pop l.queue))
  | None ->
      Ring.push t.inboxes.(l.dst).srcs l.src;
      ignore (Sim.wake t.inboxes.(l.dst).ready)

let create ~sim ~n_sites ~latency ?(trace = Trace.disabled) ?describe
    ?stats ?injector () =
  if n_sites < 1 then invalid_arg "Network.create: need at least one site";
  let t =
    {
      sim;
      n = n_sites;
      handlers = Array.make n_sites None;
      inboxes = Array.init n_sites (fun _ -> { srcs = Ring.create (); ready = Sim.waitq sim });
      links = [||];
      sent = 0;
      dropped = 0;
      trace;
      describe;
      sent_ctr = Option.map (fun s -> Stats.counter s "msg.sent") stats;
      recv_ctr = Option.map (fun s -> Stats.counter s "msg.recv") stats;
      drop_ctr =
        (match injector with
        | Some _ -> Option.map (fun s -> Stats.counter s "msg.drop") stats
        | None -> None);
      injector;
      fifo_clear = Array.make (n_sites * n_sites) 0.0;
    }
  in
  let vacant = lazy (assert false) in
  t.links <-
    Array.init (n_sites * n_sites) (fun pair ->
        let src = pair / n_sites and dst = pair mod n_sites in
        let delay = latency src dst in
        if delay < 0.0 then invalid_arg "Network.create: negative latency";
        let rec l =
          { src; dst; delay; queue = Ring.clearing vacant; in_flight = 0;
            deliver = (fun () -> deliver t l) }
        in
        l);
  t

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
  t.sent <- t.sent + 1;
  let pair = (src * t.n) + dst in
  let l = t.links.(pair) in
  l.in_flight <- l.in_flight + 1;
  (match t.sent_ctr with Some c -> Stats.incr c ~site:src | None -> ());
  Ring.push l.queue (Lazy.from_val msg);
  let tracing = Trace.on t.trace in
  let kind, size = if tracing then describe_msg t msg else ("msg", 0) in
  if tracing then Trace.record t.trace (Event.Msg_send { src; dst; kind; size });
  let deliver =
    if not tracing then l.deliver
    else fun () ->
      Trace.record t.trace (Event.Msg_recv { src; dst; kind; size });
      l.deliver ()
  in
  match t.injector with
  | None -> Sim.after t.sim l.delay deliver
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
            Sim.at t.sim at (fun () ->
                Trace.record t.trace (Event.Msg_drop { src; dst; kind; size })))
          tm.Fault.dropped;
      let arrive = Float.max (tm.Fault.depart +. l.delay +. tm.Fault.extra) t.fifo_clear.(pair) in
      t.fifo_clear.(pair) <- arrive;
      Sim.at t.sim arrive deliver

let messages_dropped t = t.dropped

let serve t site f =
  check t site;
  if Option.is_some t.handlers.(site) then invalid_arg "Network.serve: site has a custom handler";
  let box = t.inboxes.(site) in
  Sim.spawn t.sim (fun () ->
      while true do
        if Ring.length box.srcs = 0 then Sim.park box.ready;
        let src = Ring.pop box.srcs in
        f ~src (Lazy.force (Ring.pop t.links.((src * t.n) + site).queue))
      done)

let queued t site =
  check t site;
  Ring.length t.inboxes.(site).srcs

let set_handler t dst f =
  check t dst;
  t.handlers.(dst) <- Some f

let messages_sent t = t.sent

(* Messages accepted by [send] whose delivery event has not yet run. Counts
   one per message regardless of retransmissions (drops are re-sent by the
   acked link until the single delivery fires). *)
let in_flight_matching t ~f =
  Array.fold_left
    (fun acc l -> if l.in_flight <> 0 && f ~src:l.src ~dst:l.dst then acc + l.in_flight else acc)
    0 t.links

let latency t ~src ~dst =
  check t src;
  check t dst;
  t.links.((src * t.n) + dst).delay
