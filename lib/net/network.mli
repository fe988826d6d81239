(** Reliable FIFO point-to-point network between sites.

    Models the paper's assumption that "the underlying network delivers
    messages reliably and in FIFO order between any two sites": every message
    sent from [src] to [dst] arrives exactly once, after the configured
    latency, and messages on the same ordered pair never overtake each other
    (latency is per-pair constant, so FIFO follows from the deterministic
    event order of the kernel).

    Delivery is either into the destination's inbox mailbox (default) or into
    a registered handler, which runs as a plain event and must not block —
    handlers are how protocols demultiplex traffic into per-parent queues
    without an extra hop. *)

type 'a t

(** [create ~sim ~n_sites ~latency ()] — [latency src dst] gives the one-way
    delay in ms for that ordered pair; it is sampled once per pair at
    creation.

    [arity] gives the number of logical updates one physical message carries
    (default: 1). Batched nets pass the batch length so that the sent and
    in-flight counters and the per-site stats keep counting logical updates
    — comparable across batch sizes — while the simulation still schedules
    one delivery event per physical message.

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
  ?arity:('a -> int) ->
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

(** The default delivery target for [dst]: messages arrive as [(src, msg)]. *)
val inbox : 'a t -> int -> (int * 'a) Repdb_sim.Mailbox.t

(** [set_handler t dst f] — route [dst]'s traffic to [f ~src msg] instead of
    the inbox. The handler runs at delivery time and must not block. *)
val set_handler : 'a t -> int -> (src:int -> 'a -> unit) -> unit

(** Total logical messages sent so far (physical sends weighted by [arity]). *)
val messages_sent : 'a t -> int

(** [in_flight_matching t ~f] — logical messages sent but not yet delivered
    on ordered pairs selected by [f ~src ~dst], counted once per update
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
