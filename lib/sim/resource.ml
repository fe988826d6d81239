type t = { cap : int; mutable free : int; waiters : Sim.waitq }

let create ~sim ~capacity () =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  { cap = capacity; free = capacity; waiters = Sim.waitq sim }

let available t = t.free
let queue_length t = Sim.waiting t.waiters
let acquire t = if t.free > 0 then t.free <- t.free - 1 else Sim.park t.waiters

(* A woken waiter inherits the released unit, so [free] stays put. *)
let release t =
  if not (Sim.wake t.waiters) then begin
    if t.free >= t.cap then invalid_arg "Resource.release: not held";
    t.free <- t.free + 1
  end

let use t d =
  if not (d >= 0.0) then invalid_arg "Resource.use: negative duration";
  if t.free > 0 then (acquire t; Sim.delay d) else Sim.park_for t.waiters d;
  release t
