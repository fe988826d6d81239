(** Deterministic discrete-event simulation kernel.

    The kernel owns a virtual clock and an event heap. Simulated {e processes}
    are ordinary OCaml functions run under an effect handler: they may block
    on {!delay}, {!park} or {!suspend} (and on the synchronisation
    primitives built on top of them — {!Condvar}, {!Mailbox}, {!Resource}),
    at which point control returns to the scheduler. Between two blocking
    points a process runs atomically, which is how the paper's "critical
    sections" around commit are realised.

    Time is measured in {b milliseconds} throughout the repository. *)

type t

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

(** [spawn_at t time f] schedules process [f] to start at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val spawn_at : t -> float -> (unit -> unit) -> unit

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

(** {1 Wait queues}

    A wait queue parks processes in FIFO order until some other code wakes
    them, one at a time, with {!wake}. Parking and waking allocate no
    closure of their own, so it is the path for waits that happen on every
    transaction, such as {!Resource}'s CPU queue. A parked process stays
    parked until woken: a wait that can also end by a timeout, or that
    returns a value, uses {!suspend}. *)

type waitq

(** [waitq t] — an empty queue whose processes resume on kernel [t]. Only
    processes of [t] may park on it. *)
val waitq : t -> waitq

(** Processes currently parked. *)
val waiting : waitq -> int

(** [wake q] re-schedules the longest-parked process at the current time,
    as a one-shot [suspend] resume would, and returns [true]; [false] if
    none is parked. *)
val wake : waitq -> bool

(** {1 Process-side operations} *)

(** [delay d] blocks the calling process for [d] ms. Must be called from
    within a process.
    @raise Invalid_argument if [d < 0]. *)
val delay : float -> unit

(** [park q] blocks the calling process on [q] until a {!wake} picks it. *)
val park : waitq -> unit

(** [suspend register] parks the calling process and hands a one-shot
    [resume] function to [register]. Calling [resume v] re-schedules the
    process at the current simulated time with result [v]; later calls are
    ignored. It allocates a few closures per wait, and suits waits that a
    timer may end first ({!Condvar.await_timeout}) or that return a value;
    plain FIFO waits use {!park}. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** Raised by {!run} when a process terminates with an unhandled exception. *)
exception Stuck of exn
