(** Binary min-heap of timestamped events, ties broken by insertion sequence
    so that events scheduled at the same instant run in FIFO order.

    Storage is structure-of-arrays ([float array] priorities, [int array]
    sequences, payload array), so {!push}/{!pop_top} allocate nothing beyond
    amortised growth. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

(** [push h c ~seq v] inserts [v] with priority [(c.(0), seq)]; the time
    comes in a flat float array, so the call boxes none. *)
val push : 'a t -> float array -> seq:int -> 'a -> unit

(** [precedes a b] — [a] is non-empty, and [b] is empty or has a later
    minimum in [(time, seq)] order. *)
val precedes : 'a t -> 'b t -> bool

(** [due h c ~at_now horizon] — the minimum's time is at most [c.(0)] if
    [at_now], else at most [horizon], and then written to [c.(0)]. It boxes
    no float: the scheduler's clock loop runs on it. *)
val due : 'a t -> float array -> at_now:bool -> float -> bool

(** [pop_top h] removes and returns the minimum entry's payload (read
    its time with {!due} first).
    @raise Invalid_argument if the heap is empty. *)
val pop_top : 'a t -> 'a
