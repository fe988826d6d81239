(** Redo logging and recovery for a site store.

    The DataBlitz storage manager the paper builds on is a recoverable
    main-memory system; this module is the corresponding substrate here: a
    redo-only log of committed writes on top of a checkpoint snapshot. A
    simulated site can be "crashed" at any point and rebuilt by {!recover},
    which must reproduce the live store exactly (the test suite drives whole
    protocol runs through this). The log itself is an in-memory structure —
    the simulated equivalent of a log device. *)

type record =
  | Apply of { item : int; writer : int; payload : string option }
      (** A committed write, as applied through {!Store.apply}. *)
  | Ship of { item : int; value : Value.t }
      (** A whole-value install, as applied through {!Store.install}. *)

type t

val create : unit -> t

val length : t -> int

(** The checkpointed image this log is relative to. *)
val snapshot : t -> (int * Value.t) list

(** [append t r] — called by the store hooks. *)
val append : t -> record -> unit

(** [checkpoint t store] — snapshot [store]'s current contents and truncate
    the log. *)
val checkpoint : t -> (int * Value.t) list -> unit

(** [attach t store] — checkpoint [store]'s current contents into [t] and
    start logging its subsequent writes. *)
val attach : t -> Store.t -> unit

(** [reattach t store] — start logging [store]'s writes into [t] {e without}
    taking a checkpoint: the existing snapshot and log are kept. This is the
    restart path — hook the log back onto the store {!recover} just rebuilt.
    Calling {!attach} here instead would silently truncate the log, losing
    the ability to re-recover from the original checkpoint. *)
val reattach : t -> Store.t -> unit

(** [recover t ~site] — rebuild the site store: start from the checkpoint
    snapshot and replay the log in order. *)
val recover : t -> site:int -> Store.t
