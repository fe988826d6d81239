(** Condition variables for simulated processes.

    Unlike OS condition variables there is no associated mutex: simulated
    processes already run atomically between blocking points, so checking the
    predicate and calling {!await} cannot race. Each waiter is a
    {!Sim.once}: a signal and a timeout race on it, and the first wins. *)

type t

val create : unit -> t

(** Park the calling process until {!signal} or {!broadcast}. *)
val await : t -> unit

(** [await_timeout sim cv d] parks for at most [d] ms; returns [false] on
    timeout, [true] if woken. *)
val await_timeout : Sim.t -> t -> float -> bool

(** Wake the longest-waiting process, if any. *)
val signal : t -> unit

(** Wake every waiting process. *)
val broadcast : t -> unit

(** Number of processes currently parked. *)
val waiters : t -> int
