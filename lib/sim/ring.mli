(** Unbounded FIFO rings, grown by doubling: pushes and pops allocate
    nothing beyond that growth. *)

type 'a t

(** [create ()] — an empty ring whose popped slots keep their values: for
    values that hold nothing once used, such as resumed continuations. *)
val create : unit -> 'a t

(** [clearing v] — an empty ring whose free slots, popped ones included,
    hold [v], so it keeps no popped value alive. *)
val clearing : 'a -> 'a t

val length : 'a t -> int
val push : 'a t -> 'a -> unit

(** [pop r] removes and returns the oldest value; [r] must not be empty. *)
val pop : 'a t -> 'a

(** Flat float FIFOs: a value goes in and out through [c.(0)], so none is
    boxed crossing a call. [pop_float] needs a non-empty FIFO. *)
type floats

val floats : unit -> floats
val push_float : floats -> float array -> unit
val pop_float : floats -> float array -> unit
