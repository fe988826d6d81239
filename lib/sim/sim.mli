(** Deterministic discrete-event simulation kernel.

    The kernel owns a virtual clock and runs events in [(time, seq)] order,
    so ties at one instant run in scheduling order. Simulated {e processes}
    are ordinary OCaml functions run under an effect handler: they may block
    on {!delay}, {!park} or {!await} (and on {!Condvar}, {!Mailbox} and
    {!Resource}, built on them), at which point control returns to the
    scheduler. Between two blocking points a process runs atomically, which
    is how the paper's "critical sections" around commit are realised.

    An event is a callback or a bare continuation: a resumed process is
    scheduled as the continuation the runtime captured, with no closure
    around it. Events for a later instant wait in a heap. Events for the
    current instant (every wake, resume and spawn: 8-35% of the events on
    the benchmark workloads) go to the {e lane}, a FIFO ring. Heap entries
    at the current instant were pushed before the clock reached it, so
    running them, then the lane, then advancing the clock is one heap's order.

    Waits: {!delay} holds for a duration; {!park}/{!wake} serve FIFO waits
    that only a wake ends, and {!park_for} adds a hold (a site's CPU queue);
    a one-shot wait ({!once}) serves a wait that a timer may end first or
    returns a value (lock waits, request/reply round trips, {!Mailbox.recv}).

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

(** Number of events executed so far: callbacks run and processes started
    or resumed. A woken {!park_for} starting its hold is no event. *)
val events_executed : t -> int

(** [spawn t f] schedules process [f] to start at the current time. It
    allocates no closure or handler: [f] waits on the lane behind a start
    marker, and every process of [t] runs under [t]'s one effect handler. *)
val spawn : t -> (unit -> unit) -> unit

(** [spawn_at t time f] schedules process [f] to start at absolute [time].
    @raise Invalid_argument if [time] is in the past or NaN. *)
val spawn_at : t -> float -> (unit -> unit) -> unit

(** [at t time f] runs plain callback [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past or NaN. *)
val at : t -> float -> (unit -> unit) -> unit

(** [after t d f] runs [f] after delay [d].
    @raise Invalid_argument unless [d >= 0] (so also for NaN). *)
val after : t -> float -> (unit -> unit) -> unit

(** [step t] executes the single next scheduled event, advancing the clock
    to its timestamp.
    @raise Invalid_argument if no events are scheduled.
    @raise Stuck if the event's process raised an unhandled exception. *)
val step : t -> unit

(** [run t] executes events until none is scheduled.
    @raise Stuck if a process raised an unhandled exception. *)
val run : t -> unit

(** [run_until t horizon] executes events with time [<= horizon], leaving the
    clock at [horizon] (or at the last event if no event is left). Nothing
    runs if [horizon] is before the current time. *)
val run_until : t -> float -> unit

(** {1 Wait queues}

    A wait queue parks processes in FIFO order until {!wake} resumes them,
    one at a time. Parking and waking allocate nothing but the continuation
    the runtime captures. *)

type waitq

(** [waitq t] — an empty queue whose processes resume on kernel [t]. Only
    processes of [t] may park on it. *)
val waitq : t -> waitq

(** Processes currently parked. *)
val waiting : waitq -> int

(** [wake q] schedules the longest-parked process at the current time, as
    {!fire} does, and returns [true]; [false] if none is parked. *)
val wake : waitq -> bool

(** {1 One-shot waits}

    A one-shot wait parks one process until the first {!fire}: a wake, a
    reply or a timer, whichever comes first. Later fires return [false], so
    no timer needs cancelling. *)

type 'a once

(** [once ()] — a wait not yet fired, to be {!await}ed by the process that
    made it before that process blocks on anything else. *)
val once : unit -> 'a once

(** [fire o v] — if [o] has not fired, record [v] and schedule its process
    at the current time; returns whether this call won. A fire by the
    waiting process itself, before it awaits, still makes it yield: it
    resumes where the fire was among the instant's events. *)
val fire : 'a once -> 'a -> bool

(** [fired o] — some {!fire} on [o] has won. *)
val fired : 'a once -> bool

(** {1 Process-side operations} *)

(** [delay d] blocks the calling process for [d] ms. Must be called from
    within a process.
    @raise Invalid_argument unless [d >= 0] (so also for NaN). *)
val delay : float -> unit

(** [park q] blocks the calling process on [q] until a {!wake} picks it. *)
val park : waitq -> unit

(** [park_for q d] is [park q; delay d] with one resumption instead of two:
    the hold starts at the woken process's lane turn, so it ends when and in
    the order {!delay} would. @raise Invalid_argument unless [d >= 0]. *)
val park_for : waitq -> float -> unit

(** [await o] blocks the calling process until [o] fires and returns the
    winning value. Each wait is awaited once. *)
val await : 'a once -> 'a

(** [suspend register] parks the calling process and hands [register] a
    [resume] that fires a {!once}: [resume v] re-schedules the process at
    the current time with result [v], and later calls are ignored. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** Raised by {!run} when a process terminates with an unhandled exception. *)
exception Stuck of exn
