open Effect.Deep

type t = {
  clock : float array;
      (* One-element flat float array: a [mutable clock : float] field in a
         mixed record is boxed, so every clock advance would allocate. *)
  mutable seq : int;
  mutable executed : int;
  events : (unit -> unit) Heap.t;
}

(* A FIFO ring of parked continuations. [park] is the effect value and
   [on_park] its handler, both allocated once with the queue, so parking
   allocates only the continuation the runtime captures. The ring's
   capacity is a power of two; slots outside [head, head + len) keep
   continuations that were already resumed, which hold no stack. *)
type waitq = {
  sim : t;
  mutable ring : (unit, unit) continuation array;
  mutable head : int;
  mutable len : int;
  park : unit Effect.t;
  on_park : ((unit, unit) continuation -> unit) option;
}

type _ Effect.t +=
  | Delay : unit Effect.t
  | Park : waitq -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

exception Stuck of exn

let create () = { clock = [| 0.0 |]; seq = 0; executed = 0; events = Heap.create () }

let now t = t.clock.(0)
let clock t () = t.clock.(0)
let events_executed t = t.executed

let schedule t time fn =
  t.seq <- t.seq + 1;
  Heap.push t.events ~time ~seq:t.seq fn

let at t time fn =
  if time < t.clock.(0) then invalid_arg "Sim.at: time is in the past";
  schedule t time fn

let after t d fn =
  if d < 0.0 then invalid_arg "Sim.after: negative delay";
  schedule t (t.clock.(0) +. d) fn

(* --- wait queues ------------------------------------------------------------ *)

let push q k =
  let cap = Array.length q.ring in
  if q.len = cap then begin
    let ring = Array.make (if cap = 0 then 8 else 2 * cap) k in
    for i = 0 to q.len - 1 do
      ring.(i) <- q.ring.((q.head + i) land (cap - 1))
    done;
    q.ring <- ring;
    q.head <- 0
  end;
  q.ring.((q.head + q.len) land (Array.length q.ring - 1)) <- k;
  q.len <- q.len + 1

let waitq sim =
  let rec q =
    { sim; ring = [||]; head = 0; len = 0; park = Park q; on_park = Some (fun k -> push q k) }
  in
  q

let waiting q = q.len

let wake q =
  if q.len = 0 then false
  else begin
    let k = q.ring.(q.head) in
    q.head <- (q.head + 1) land (Array.length q.ring - 1);
    q.len <- q.len - 1;
    let t = q.sim in
    schedule t t.clock.(0) (fun () -> continue k ());
    true
  end

(* --- processes ---------------------------------------------------------------- *)

(* [delay]'s duration travels through this per-domain cell rather than in
   the effect, so [Delay] is a constant. Per domain, not global: pools run
   kernels on several domains at once. The handler runs on the performing
   domain right after [perform], before the process can delay again. *)
let delay_arg = Domain.DLS.new_key (fun () -> [| 0.0 |])

(* Run [f] as a process: effects [Delay], [Park] and [Suspend] park the
   computation and re-enter through the event heap. The handler is
   installed deeply, so resumed continuations keep it. [Delay]'s handler
   is built once per process and [Park]'s once per queue. *)
let run_process t f =
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        schedule t (t.clock.(0) +. (Domain.DLS.get delay_arg).(0)) (fun () -> continue k ()))
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
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  let resume v =
                    if not !resumed then begin
                      resumed := true;
                      schedule t t.clock.(0) (fun () -> continue k v)
                    end
                  in
                  register resume)
          | _ -> None);
    }

let spawn t f = schedule t t.clock.(0) (fun () -> run_process t f)

let spawn_at t time f =
  if time < t.clock.(0) then invalid_arg "Sim.spawn_at: time is in the past";
  schedule t time (fun () -> run_process t f)

let step t =
  if Heap.is_empty t.events then invalid_arg "Sim.step: no scheduled events";
  t.clock.(0) <- Heap.top_time t.events;
  t.executed <- t.executed + 1;
  (Heap.pop_top t.events) ()

let run t =
  while not (Heap.is_empty t.events) do
    t.clock.(0) <- Heap.top_time t.events;
    t.executed <- t.executed + 1;
    (Heap.pop_top t.events) ()
  done

let run_until t horizon =
  let events = t.events in
  while (not (Heap.is_empty events)) && Heap.top_time events <= horizon do
    t.clock.(0) <- Heap.top_time events;
    t.executed <- t.executed + 1;
    (Heap.pop_top events) ()
  done;
  if (not (Heap.is_empty events)) && t.clock.(0) < horizon then t.clock.(0) <- horizon

let delay d =
  if d < 0.0 then invalid_arg "Sim.delay: negative delay";
  (Domain.DLS.get delay_arg).(0) <- d;
  Effect.perform Delay

let park q = Effect.perform q.park
let suspend register = Effect.perform (Suspend register)
