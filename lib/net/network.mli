(** Reliable FIFO point-to-point network between sites.

    Models the paper's assumption that "the underlying network delivers
    messages reliably and in FIFO order between any two sites": every message
    sent from [src] to [dst] arrives exactly once, after the configured
    latency, and messages on the same ordered pair never overtake each other
    (latency is per-pair constant, so FIFO follows from the deterministic
    event order of the kernel).

    A send pushes the message on its pair's FIFO ring and schedules the
    pair's one delivery callback, which takes the oldest: no closure, tuple
    or wait per message, and no ring keeps a taken message. It goes to the
    site's server ({!serve}) or to a handler ({!set_handler}), which runs as
    a plain event and must not block — handlers are how protocols
    demultiplex traffic into per-parent queues without an extra hop. *)

type 'a t

(** [create ~sim ~n_sites ~latency ()] — [latency src dst] gives the one-way
    delay in ms for that ordered pair; it is sampled once per pair at
    creation.

    Observability: when [trace] is enabled, every send and delivery is
    recorded as a [Msg_send] / [Msg_recv] event tagged with the message kind
    and approximate size from [describe] (defaults to [("msg", 0)]); when
    [stats] is given, per-site ["msg.sent"] / ["msg.recv"] counters are
    registered and bumped.

    Faults: when [injector] is given, each send consults its transmission
    plan — failed attempts (drop windows, endpoints down) are retried every
    RTO, traced as [Msg_drop] and counted in a per-site ["msg.drop"] counter,
    and deliveries are clamped to the pair's latest scheduled delivery so the
    channel stays FIFO across losses. Messages are therefore delayed by
    faults, never lost: the reliable-FIFO contract above still holds. *)
val create :
  sim:Repdb_sim.Sim.t ->
  n_sites:int ->
  latency:(int -> int -> float) ->
  ?trace:Repdb_obs.Trace.t ->
  ?describe:('a -> string * int) ->
  ?stats:Repdb_obs.Stats.t ->
  ?injector:Repdb_fault.Fault.injector ->
  unit ->
  'a t

val n_sites : 'a t -> int

(** [send t ~src ~dst msg] — deliver [msg] to [dst] after the pair's latency.
    @raise Invalid_argument on out-of-range sites or [src = dst]. *)
val send : 'a t -> src:int -> dst:int -> 'a -> unit

(** [reachable t ~src ~dst] — the injector's partition oracle at the current
    simulated time: false iff an active partition separates the pair. Always
    true without an injector (and under crashes or drop windows alone — those
    stall the link, they do not cut the topology). Senders consult this to
    fail fast / degrade instead of parking a message behind the cut.
    @raise Invalid_argument on out-of-range sites. *)
val reachable : 'a t -> src:int -> dst:int -> bool

(** [serve t site f] spawns, at the current instant, [site]'s one server: a
    process that takes [site]'s messages one at a time, in arrival order,
    and runs [f ~src msg] on each before taking the next — forever. [f] may
    block; the server parks on a wait queue only when no message is left.
    @raise Invalid_argument if [site] is out of range or has a handler. *)
val serve : 'a t -> int -> (src:int -> 'a -> unit) -> unit

(** [queued t site] — messages delivered to [site] not yet taken by its server. *)
val queued : 'a t -> int -> int

(** [set_handler t dst f] — run [f ~src msg] on each of [dst]'s messages at
    its delivery event, instead of handing it to a server. The handler must
    not block. *)
val set_handler : 'a t -> int -> (src:int -> 'a -> unit) -> unit

(** Total messages sent so far. *)
val messages_sent : 'a t -> int

(** [in_flight_matching t ~f] — messages sent but not yet delivered
    on ordered pairs selected by [f ~src ~dst], counted once per message
    regardless of how many faulty transmission attempts it took. The
    healer's failover drain waits for everything except the [parked] pairs
    to reach zero, where [parked]
    selects pairs with a down endpoint or an active partition between them:
    traffic parked behind a crashed site must not stall the epoch switch for
    the whole downtime. *)
val in_flight_matching : 'a t -> f:(src:int -> dst:int -> bool) -> int

(** Total dropped transmission attempts so far (0 without an injector; a
    single message may account for several). *)
val messages_dropped : 'a t -> int

(** One-way latency for a pair (as sampled at creation). *)
val latency : 'a t -> src:int -> dst:int -> float
