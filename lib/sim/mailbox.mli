(** Unbounded FIFO mailboxes connecting simulated processes.

    Messages are delivered in send order; receivers are served in arrival
    order. A receiver that finds the mailbox empty waits on a {!Sim.once},
    and {!send} hands its value straight to it; {!recv_timeout} ends such
    a wait on a timer too. *)

type 'a t

val create : unit -> 'a t

(** [send mb v] enqueues [v], waking the longest-waiting receiver if any.
    Never blocks. *)
val send : 'a t -> 'a -> unit

(** [recv mb] dequeues the next message, blocking while the mailbox is
    empty. *)
val recv : 'a t -> 'a

(** [recv_timeout sim mb d] is [Some v] if a message arrives within [d] ms,
    [None] otherwise. *)
val recv_timeout : Sim.t -> 'a t -> float -> 'a option

(** [peek mb] is the next message without consuming it. *)
val peek : 'a t -> 'a option

(** Number of queued messages; one handed straight to a waiting receiver is
    never counted. *)
val length : 'a t -> int

val is_empty : 'a t -> bool
