(** Per-transaction lifecycle phase attribution.

    Each client transaction attempt is decomposed into lock wait,
    execution, propagation/backedge wait, and commit phases; client think
    time (retry backoff) is tracked separately. Phases are accumulated on
    an open record keyed by the attempt's gid, opened at [Metrics.txn_begin]
    time and closed at commit/abort, where the phase durations are fed
    into per-site [Stats] histograms ([span.lock], [span.exec],
    [span.prop], [span.commit], [span.think]) and — when tracing — emitted
    as {!Event.Span_phase} duration events.

    Execution time is derived: [exec = total − lock − prop − commit],
    clamped at 0, so the four phases always sum to the attempt's response
    time.

    Lock managers report waits by lock-owner (attempt) id; {!begin_} ties
    the attempt's id to its gid. Other owners (secondary appliers,
    backedge participants) are ignored.

    Open records live in reused slots found through two int-keyed
    open-addressing indexes (by gid and by owner), so a begin, the phase
    charges and a finish allocate nothing in steady state. *)

type phase = Lock_wait | Prop_wait | Commit

type t

(** Registers the five [span.*] histograms in [stats]. *)
val create : stats:Stats.t -> trace:Trace.t -> unit -> t

(** [begin_ t ~gid ~owner ~site ~now] opens the record of attempt [gid],
    started at simulated time [now]; lock waits that managers report for
    lock-owner id [owner] are charged to it. [gid] and [owner] must be
    non-negative and not already open. *)
val begin_ : t -> gid:int -> owner:int -> site:int -> now:float -> unit

(** Charge [dur] ms of [phase] to the open attempt of [owner]; silently
    ignored for other owners. *)
val add : t -> owner:int -> phase -> float -> unit

(** Observe client think (backoff) time directly at [site]. *)
val think : t -> site:int -> float -> unit

(** Close the attempt: observe all phase histograms and emit trace span
    events. No-op if [gid] has no open record. *)
val finish : t -> gid:int -> now:float -> unit

(** Open (unfinished) attempt records — should be 0 after a drained run. *)
val open_count : t -> int
