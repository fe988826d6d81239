(* A receiver whose timer fired first stays queued until a send pops it and
   finds it already fired. *)
type 'a t = { items : 'a Queue.t; waiters : 'a option Sim.once Queue.t }

let create () = { items = Queue.create (); waiters = Queue.create () }

let rec send t v =
  if Queue.is_empty t.waiters then Queue.add v t.items
  else if not (Sim.fire (Queue.take t.waiters) (Some v)) then send t v

let wait t =
  let w = Sim.once () in
  Queue.add w t.waiters;
  w

let recv t =
  if not (Queue.is_empty t.items) then Queue.take t.items
  else match Sim.await (wait t) with Some v -> v | None -> assert false (* no timer *)

let recv_timeout sim t d =
  if not (Queue.is_empty t.items) then Some (Queue.take t.items)
  else begin
    let w = wait t in
    Sim.after sim d (fun () -> ignore (Sim.fire w None));
    Sim.await w
  end

let peek t = Queue.peek_opt t.items
let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items
