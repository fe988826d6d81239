open Effect.Deep

(* Events are callbacks or bare continuations, in two heaps merged by
   (time, seq). Events at the current instant go to the lane instead, a FIFO
   of callbacks and the markers [kont], [start] and [hand] (below). *)
type t = {
  clock : float array;
      (* One-element flat float array: a [mutable clock : float] field in a
         mixed record is boxed, so every clock advance would allocate. *)
  next : float array; (* the time being scheduled, unboxed the same way, or a hold in transit *)
  mutable seq : int;
  mutable executed : int;
  calls : (unit -> unit) Heap.t;
  konts : (unit, unit) continuation Heap.t;
  lane : (unit -> unit) Ring.t;
  lane_ks : (unit, unit) continuation Ring.t;
  holds : Ring.floats; (* the holds of the lane's [hand] markers *)
  mutable awaiting : unit Effect.t; (* the last [Await], read by [on_await] *)
  handler : (unit, unit) handler; (* every process's, built with the kernel *)
}

(* [park] is the effect value and [on_park] its handler, both allocated once
   with the queue, so parking allocates only the captured continuation. *)
and waitq = {
  sim : t;
  ring : (unit, unit) continuation Ring.t;
  durs : Ring.floats; (* each parked process's hold; -1 after a plain [park] *)
  park : unit Effect.t;
  on_park : ((unit, unit) continuation -> unit) option;
}

(* A fire before the process parks ([Early]) queues a callback that resumes
   it once it has parked ([Held]). *)
and 'a once = { mutable state : 'a state }

and 'a state =
  | Armed
  | Parked of t * (unit, unit) continuation
  | Early of 'a
  | Held of (unit, unit) continuation * 'a
  | Fired of 'a

type _ Effect.t +=
  | Delay : unit Effect.t
  | Park : waitq -> unit Effect.t
  | Await : 'a once -> unit Effect.t
  | Self : t Effect.t

exception Stuck of exn

(* Lane markers, never run: [kont] stands for the next continuation of
   [lane_ks], [start] for a process to start, the lane's next entry, [hand]
   for the next continuation to hold for the next of [holds] first. *)
let kont () = assert false
let start () = assert false
let hand () = assert false

let resume_now t k =
  Ring.push t.lane kont;
  Ring.push t.lane_ks k

(* [Await]'s handler: the effect is stashed in [awaiting]. *)
let on_await t k =
  match t.awaiting with
  | Await ({ state = Armed; _ } as o) -> o.state <- Parked (t, k)
  | Await ({ state = Early v; _ } as o) -> o.state <- Held (k, v)
  | _ -> discontinue k (Invalid_argument "Sim.await: awaited twice")

(* [delay]'s duration travels through this per-domain cell rather than in
   the effect, so [Delay] is a constant. Per domain, not global: pools run
   kernels on several domains at once. The handler runs on the performing
   domain right after [perform], before the process can delay again. *)
let delay_arg = Domain.DLS.new_key (fun () -> [| 0.0 |])

(* Resume [k] [d.(0)] ms from now: [delay]'s handler and a [hand] marker. *)
let hold t d k =
  t.next.(0) <- t.clock.(0) +. d.(0);
  if t.next.(0) = t.clock.(0) then resume_now t k
  else begin
    t.seq <- t.seq + 1;
    Heap.push t.konts t.next ~seq:t.seq k
  end

(* Processes run under one deep handler per kernel, so resumed
   continuations keep it; [Park]'s effect handler is built once per queue,
   the others here. *)
let stuck e = Printexc.(raise_with_backtrace (Stuck e) (get_raw_backtrace ()))

let create () =
  let rec t =
    { clock = [| 0.0 |]; next = [| 0.0 |]; seq = 0; executed = 0; calls = Heap.create ();
      konts = Heap.create (); lane = Ring.create (); lane_ks = Ring.create ();
      holds = Ring.floats (); awaiting = Delay; handler = { retc = Fun.id; exnc = stuck; effc } }
  and effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
    | Delay -> delayed
    | Park q -> q.on_park
    | Await _ as eff ->
        t.awaiting <- eff;
        awaited
    | Self -> self
    | _ -> None
  and delayed : ((unit, unit) continuation -> unit) option =
    Some (fun k -> hold t (Domain.DLS.get delay_arg) k)
  and awaited : ((unit, unit) continuation -> unit) option = Some (fun k -> on_await t k)
  and self : ((t, unit) continuation -> unit) option = Some (fun k -> continue k t) in
  t

let now t = t.clock.(0)
let clock t () = t.clock.(0)
let events_executed t = t.executed

(* Schedule [fn] at [t.next.(0)]. *)
let schedule t fn =
  if t.next.(0) = t.clock.(0) then Ring.push t.lane fn
  else begin
    t.seq <- t.seq + 1;
    Heap.push t.calls t.next ~seq:t.seq fn
  end

(* [not (x >= y)] rather than [x < y], so a NaN time is refused too. *)
let at t time fn =
  if not (time >= t.clock.(0)) then invalid_arg "Sim.at: time is in the past";
  t.next.(0) <- time;
  schedule t fn

let after t d fn =
  if not (d >= 0.0) then invalid_arg "Sim.after: negative delay";
  t.next.(0) <- t.clock.(0) +. d;
  schedule t fn

(* --- wait queues and one-shot waits ----------------------------------------- *)

let waitq sim =
  let rec q = { sim; ring = Ring.create (); durs = Ring.floats (); park = Park q; on_park }
  and on_park = Some (fun k -> Ring.push q.ring k; Ring.push_float q.durs sim.next) in
  q

let waiting q = Ring.length q.ring

let wake q =
  let t = q.sim in
  Ring.length q.ring > 0
  && begin
       Ring.pop_float q.durs t.next;
       if t.next.(0) < 0.0 then Ring.push t.lane kont
       else (Ring.push t.lane hand; Ring.push_float t.holds t.next);
       Ring.push t.lane_ks (Ring.pop q.ring);
       true
     end

let wake_all q = while wake q do () done

let once () = { state = Armed }
let fired o = match o.state with Armed | Parked _ -> false | Early _ | Held _ | Fired _ -> true

let fire o v =
  match o.state with
  | Parked (t, k) ->
      o.state <- Fired v;
      resume_now t k;
      true
  | Armed ->
      (* Only the waiting process itself, before it parks, gets here. *)
      o.state <- Early v;
      let t = Effect.perform Self in
      Ring.push t.lane (fun () ->
          match o.state with Held (k, v) -> o.state <- Fired v; continue k () | _ -> assert false);
      true
  | Early _ | Held _ | Fired _ -> false

(* --- processes ---------------------------------------------------------------- *)

(* A spawn is two lane entries, [start] and the process, so it allocates no
   closure around it. *)
let spawn t f =
  Ring.push t.lane start;
  Ring.push t.lane f

let spawn_at t time f =
  if not (time >= t.clock.(0)) then invalid_arg "Sim.spawn_at: time is in the past";
  at t time (fun () -> match_with f () t.handler)

(* Run the next event at or before [horizon]; [false] if there is none. Heap
   entries at [now] were pushed before the clock reached [now], so their seq
   is below every lane entry's: running them, then the lane, and only then
   advancing the clock keeps (time, seq) order. *)
let rec next t horizon =
  let at_now = Ring.length t.lane > 0 and calls = Heap.precedes t.calls t.konts in
  if at_now && not (t.clock.(0) <= horizon) then false
  else if
    if calls then Heap.due t.calls t.clock ~at_now horizon
    else Heap.due t.konts t.clock ~at_now horizon
  then begin
    t.executed <- t.executed + 1;
    if calls then (Heap.pop_top t.calls) () else continue (Heap.pop_top t.konts) ();
    true
  end
  else
    at_now
    &&
    let f = Ring.pop t.lane in
    if f == hand then (* no event: it holds where the resumed process would delay *)
      (Ring.pop_float t.holds t.next; hold t t.next (Ring.pop t.lane_ks); next t horizon)
    else begin
      t.executed <- t.executed + 1;
      if f == kont then continue (Ring.pop t.lane_ks) ()
      else if f == start then match_with (Ring.pop t.lane) () t.handler
      else f ();
      true
    end

let step t = if not (next t infinity) then invalid_arg "Sim.step: no scheduled events"
let run t = while next t infinity do () done

let run_until t horizon =
  while next t horizon do () done;
  (* A lane still pending here means the clock is already past [horizon]. *)
  if (not (Heap.is_empty t.calls && Heap.is_empty t.konts)) && t.clock.(0) < horizon then
    t.clock.(0) <- horizon

let delay d =
  if not (d >= 0.0) then invalid_arg "Sim.delay: negative delay";
  (Domain.DLS.get delay_arg).(0) <- d;
  Effect.perform Delay

let park q = q.sim.next.(0) <- -1.0; Effect.perform q.park

let park_for q d =
  if not (d >= 0.0) then invalid_arg "Sim.park_for: negative hold";
  q.sim.next.(0) <- d;
  Effect.perform q.park

let await o =
  Effect.perform (Await o);
  match o.state with Fired v -> v | Armed | Parked _ | Early _ | Held _ -> assert false

let suspend register =
  let o = once () in
  register (fun v -> ignore (fire o v));
  await o
