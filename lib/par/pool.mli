(** Domain pool for embarrassingly parallel fan-out.

    The experiment harness ([repdb experiment]) runs many independent
    deterministic simulations (one [Driver.run] per protocol per swept
    parameter value). A pool owns [domains - 1] worker domains that, together
    with the calling domain, drain a shared task array by chunked
    work-stealing over an atomic index. Results land at the index of the
    input that produced them, so a parallel [map] returns exactly the array
    the sequential [Array.map] would — parallel runs are bit-identical to
    sequential ones as long as each task is self-contained (owns its own
    simulator, RNG and mutable state), which every [Driver.run] is.

    A pool may be reused for any number of successive [map] calls; it must
    not be used from two domains at once, and tasks must not call [map] on
    the pool that is running them (both raise [Invalid_argument]). *)

type t

(** [create ~domains ()] spawns [domains - 1] worker domains (so [map] uses
    [domains] domains in total, counting the caller).
    @raise Invalid_argument if [domains < 1]. *)
val create : domains:int -> unit -> t

(** Total parallelism of the pool, counting the calling domain. *)
val domains : t -> int

(** [default_domains ()] is the default [-j]:
    [max 1 (Domain.recommended_domain_count () - 1)] — leave one core for
    the OS / the caller's other work, never less than 1 (sequential). *)
val default_domains : unit -> int

(** [map pool xs ~f] applies [f] to every element of [xs] in parallel and
    returns the results in input order. Tasks are claimed in chunks via an
    atomic index; output ordering is deterministic regardless of the
    interleaving (results land at the index of the input that produced
    them). If any [f x] raises, the first exception (by claim order) is
    re-raised in the caller with its original backtrace, after all domains
    have stopped claiming work. A pool with [domains = 1] (or a
    singleton/empty input) runs sequentially in the caller.

    Each claim takes {!adaptive_chunk} consecutive tasks,
    [max 1 (n / (domains * 4))]: each domain gets a few claims so
    work-stealing can even out slow tasks while amortising claim overhead on
    large fan-outs.
    @raise Invalid_argument on concurrent or nested use of the same pool. *)
val map : t -> 'a array -> f:('a -> 'b) -> 'b array

(** The number of tasks [map] claims per atomic increment. *)
val adaptive_chunk : domains:int -> n:int -> int

(** Shut the worker domains down and join them. The pool must not be used
    afterwards. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f pool] and shuts the pool down afterwards,
    whether [f] returns or raises. *)
val with_pool : domains:int -> (t -> 'a) -> 'a
