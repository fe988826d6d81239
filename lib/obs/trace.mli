(** Structured trace collector: a ring buffer of typed events stamped with
    simulated time.

    The collector is zero-cost when disabled: instrumented code guards every
    emission with {!on}, so a disabled trace costs one load and one branch
    per potential event and allocates nothing. When the buffer is full the
    oldest events are dropped (and counted), so long runs degrade to a
    sliding window rather than unbounded memory. *)

type t

(** The shared disabled collector: {!on} is [false], {!record} is a no-op. *)
val disabled : t

(** [create ~clock ()] — an enabled collector reading timestamps from
    [clock] (normally [Sim.clock sim], the kernel's clock hook).
    [capacity] is the ring size in events (default [2^20]); the ring
    starts small and grows geometrically up to it. *)
val create : ?capacity:int -> clock:(unit -> float) -> unit -> t

(** Whether events are being collected. Guard event construction with this:
    [if Trace.on tr then Trace.record tr (Event.… {…})]. *)
val on : t -> bool

(** Append an event stamped with the current simulated time. No-op when
    disabled. *)
val record : t -> Event.kind -> unit

(** Events in emission order (oldest survivor first). *)
val events : t -> Event.t list

val iter : t -> (Event.t -> unit) -> unit

(** Events currently held (≤ capacity). *)
val length : t -> int

(** Events discarded because the ring was full. *)
val dropped : t -> int

(** Ring size in events (0 for {!disabled}). *)
val capacity : t -> int
