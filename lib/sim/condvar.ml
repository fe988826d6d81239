(* Waiters are one-shot waits in FIFO order. A wait whose timer fired
   first stays queued until a signal pops it and finds it already fired. *)
type t = { q : bool Sim.once Queue.t }

let create () = { q = Queue.create () }

let enqueue t =
  let w = Sim.once () in
  Queue.add w t.q;
  w

let await t = ignore (Sim.await (enqueue t))

let await_timeout sim t d =
  let w = enqueue t in
  Sim.after sim d (fun () -> ignore (Sim.fire w false));
  Sim.await w

let rec signal t =
  if not (Queue.is_empty t.q) then if not (Sim.fire (Queue.take t.q) true) then signal t

let broadcast t =
  Queue.iter (fun w -> ignore (Sim.fire w true)) t.q;
  Queue.clear t.q

let waiters t = Queue.fold (fun acc w -> if Sim.fired w then acc else acc + 1) 0 t.q
