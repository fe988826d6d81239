open Effect.Deep

(* A FIFO ring of capacity a power of two, grown with the pushed value as
   filler. Popped slots keep their values; resumed continuations hold no
   stack. *)
type 'a ring = { mutable buf : 'a array; mutable head : int; mutable len : int }

(* Events are callbacks or bare continuations, in two heaps merged by
   (time, seq). Events at the current instant go to the lane instead, a FIFO
   in which [kont] stands for the next continuation of [lane_ks]. *)
type t = {
  clock : float array;
      (* One-element flat float array: a [mutable clock : float] field in a
         mixed record is boxed, so every clock advance would allocate. *)
  next : float array; (* the time being scheduled, unboxed the same way *)
  mutable seq : int;
  mutable executed : int;
  calls : (unit -> unit) Heap.t;
  konts : (unit, unit) continuation Heap.t;
  lane : (unit -> unit) ring;
  lane_ks : (unit, unit) continuation ring;
  mutable awaiting : unit Effect.t; (* the last [Await], read by [on_await] *)
  on_await : ((unit, unit) continuation -> unit) option;
}

(* [park] is the effect value and [on_park] its handler, both allocated once
   with the queue, so parking allocates only the captured continuation. *)
and waitq = {
  sim : t;
  ring : (unit, unit) continuation ring;
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

let ring () = { buf = [||]; head = 0; len = 0 }

let push r v =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (if cap = 0 then 8 else 2 * cap) v in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

let pop r =
  let v = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

let kont () = assert false (* the lane marker, never run *)

let resume_now t k =
  push t.lane kont;
  push t.lane_ks k

(* [Await]'s handler, one per kernel: the effect is stashed in [awaiting]. *)
let on_await t k =
  match t.awaiting with
  | Await ({ state = Armed; _ } as o) -> o.state <- Parked (t, k)
  | Await ({ state = Early v; _ } as o) -> o.state <- Held (k, v)
  | _ -> discontinue k (Invalid_argument "Sim.await: awaited twice")

let create () =
  let calls = Heap.create () and konts = Heap.create () in
  let rec t =
    { clock = [| 0.0 |]; next = [| 0.0 |]; seq = 0; executed = 0; calls; konts;
      lane = ring (); lane_ks = ring (); awaiting = Delay; on_await = Some (fun k -> on_await t k) }
  in
  t

let now t = t.clock.(0)
let clock t () = t.clock.(0)
let events_executed t = t.executed

(* Schedule [fn] at [t.next.(0)]. *)
let schedule t fn =
  if t.next.(0) = t.clock.(0) then push t.lane fn
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
  let rec q = { sim; ring = ring (); park = Park q; on_park = Some (fun k -> push q.ring k) } in
  q

let waiting q = q.ring.len
let wake q = q.ring.len > 0 && (resume_now q.sim (pop q.ring); true)
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
      push t.lane (fun () ->
          match o.state with Held (k, v) -> o.state <- Fired v; continue k () | _ -> assert false);
      true
  | Early _ | Held _ | Fired _ -> false

(* --- processes ---------------------------------------------------------------- *)

(* [delay]'s duration travels through this per-domain cell rather than in
   the effect, so [Delay] is a constant. Per domain, not global: pools run
   kernels on several domains at once. The handler runs on the performing
   domain right after [perform], before the process can delay again. *)
let delay_arg = Domain.DLS.new_key (fun () -> [| 0.0 |])

(* Run [f] as a process: its effects park the computation and re-enter
   through the events. The handler is installed deeply, so resumed
   continuations keep it. [Delay]'s handler is built once per process,
   [Park]'s once per queue and [Await]'s once per kernel. *)
let run_process t f =
  let on_delay =
    Some
      (fun k ->
        t.next.(0) <- t.clock.(0) +. (Domain.DLS.get delay_arg).(0);
        if t.next.(0) = t.clock.(0) then resume_now t k
        else begin
          t.seq <- t.seq + 1;
          Heap.push t.konts t.next ~seq:t.seq k
        end)
  in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          Printexc.raise_with_backtrace (Stuck e) bt);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay -> on_delay
          | Park q -> q.on_park
          | Await _ ->
              t.awaiting <- eff;
              t.on_await
          | Self -> Some (fun k -> continue k t)
          | _ -> None);
    }

let spawn t f = push t.lane (fun () -> run_process t f)

let spawn_at t time f =
  if not (time >= t.clock.(0)) then invalid_arg "Sim.spawn_at: time is in the past";
  at t time (fun () -> run_process t f)

(* Run the next event at or before [horizon]; [false] if there is none. Heap
   entries at [now] were pushed before the clock reached [now], so their seq
   is below every lane entry's: running them, then the lane, and only then
   advancing the clock keeps (time, seq) order. *)
let next t horizon =
  let at_now = t.lane.len > 0 and calls = Heap.precedes t.calls t.konts in
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
    && begin
         t.executed <- t.executed + 1;
         let f = pop t.lane in
         if f == kont then continue (pop t.lane_ks) () else f ();
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

let park q = Effect.perform q.park

let await o =
  Effect.perform (Await o);
  match o.state with Fired v -> v | Armed | Parked _ | Early _ | Held _ -> assert false

let suspend register =
  let o = once () in
  register (fun v -> ignore (fire o v));
  await o
