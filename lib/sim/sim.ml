type t = {
  clock : float array;
      (* One-element flat float array: a [mutable clock : float] field in a
         mixed record is boxed, so every clock advance would allocate. *)
  mutable seq : int;
  mutable executed : int;
  events : (unit -> unit) Heap.t;
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
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

(* Run [f] as a process: effects [Delay] and [Suspend] park the computation
   and re-enter through the event heap. The handler is installed deeply, so
   resumed continuations keep it.

   [Delay] is the hottest effect, so its handler is built once per process:
   [effc] parks the requested delay in the process's float cell and returns
   the same [Some] closure every time. The runtime calls that closure right
   after [effc] returns, so the cell is read before the process can perform
   another [Delay]. *)
let run_process t f =
  let open Effect.Deep in
  let pending = [| 0.0 |] in
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        let d = pending.(0) in
        if d < 0.0 then discontinue k (Invalid_argument "Sim.delay: negative delay")
        else schedule t (t.clock.(0) +. d) (fun () -> continue k ()))
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
          | Delay d ->
              pending.(0) <- d;
              on_delay
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
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let delay d = Effect.perform (Delay d)
let suspend register = Effect.perform (Suspend register)
