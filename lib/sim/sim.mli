(** Deterministic discrete-event simulation kernel.

    The kernel owns a virtual clock and an event heap. Simulated {e processes}
    are ordinary OCaml functions run under an effect handler: they may block
    on {!delay} or {!suspend} (and on the synchronisation primitives built on
    top of them — {!Condvar}, {!Mailbox}, {!Resource}), at which point control
    returns to the scheduler. Between two blocking points a process runs
    atomically, which is how the paper's "critical sections" around commit
    are realised.

    Time is measured in {b milliseconds} throughout the repository. *)

type t

(** {1 Effects performed by processes} *)

type _ Effect.t +=
  | Delay : float -> unit Effect.t
        (** Block for a simulated duration. *)
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
        (** [Suspend register]: park the process and hand a one-shot [resume]
            function to [register]. Calling [resume v] re-schedules the
            process at the current simulated time with result [v]; subsequent
            calls are ignored. *)

(** {1 Kernel} *)

(** [create ()] returns a fresh simulation with the clock at [0.0]. *)
val create : unit -> t

(** Current simulated time (ms). *)
val now : t -> float

(** [clock t] — the kernel's clock as a thunk, for observers (e.g. trace
    collectors) that timestamp events without holding the kernel itself. *)
val clock : t -> unit -> float

(** Number of events executed so far. *)
val events_executed : t -> int

(** [spawn t f] schedules process [f] to start at the current time. *)
val spawn : t -> (unit -> unit) -> unit

(** [at t time f] runs plain callback [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val at : t -> float -> (unit -> unit) -> unit

(** [after t d f] runs [f] after delay [d >= 0]. *)
val after : t -> float -> (unit -> unit) -> unit

(** [step t] executes the single next scheduled event, advancing the clock
    to its timestamp.
    @raise Invalid_argument if no events are scheduled.
    @raise Stuck if the event's process raised an unhandled exception. *)
val step : t -> unit

(** [run t] executes events until the heap is empty.
    @raise Stuck if a process raised an unhandled exception. *)
val run : t -> unit

(** [run_until t horizon] executes events with time [<= horizon], leaving the
    clock at [horizon] (or at the last event if the heap drains first). *)
val run_until : t -> float -> unit

(** {1 Process-side operations} *)

(** [delay d] blocks the calling process for [d] ms. Must be called from
    within a process. *)
val delay : float -> unit

(** [suspend register] parks the calling process; see {!Suspend}. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** Raised by {!run} when a process terminates with an unhandled exception. *)
exception Stuck of exn
