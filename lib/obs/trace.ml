type t = {
  enabled : bool;
  clock : unit -> float;
  capacity : int;
  mutable buf : Event.t array; (* grows geometrically up to [capacity] *)
  mutable next : int; (* write position *)
  mutable len : int; (* events held: min (total recorded) capacity *)
  mutable dropped : int;
}

(* Fills the slots not yet written. *)
let filler = { Event.time = 0.0; kind = Event.Txn_begin { gid = 0; site = 0 } }

let disabled =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    capacity = 0;
    buf = [||];
    next = 0;
    len = 0;
    dropped = 0;
  }

let create ?(capacity = 1 lsl 20) ~clock () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { enabled = true; clock; capacity; buf = [||]; next = 0; len = 0; dropped = 0 }

let[@inline] on t = t.enabled

(* Only called before the first wrap, when the events fill [buf] from 0. *)
let grow t =
  let n = Array.length t.buf in
  let buf = Array.make (min t.capacity (max 1024 (2 * n))) filler in
  Array.blit t.buf 0 buf 0 n;
  t.buf <- buf

let record t kind =
  if t.enabled then begin
    if t.next = Array.length t.buf then grow t;
    t.buf.(t.next) <- { Event.time = t.clock (); kind };
    t.next <- (t.next + 1) mod t.capacity;
    if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

let iter t f =
  let start = (t.next - t.len + t.capacity * 2) mod max 1 t.capacity in
  for i = 0 to t.len - 1 do
    f t.buf.((start + i) mod t.capacity)
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let length t = t.len
let dropped t = t.dropped
let capacity t = t.capacity
