(** Counted FIFO resources.

    A resource with capacity [c] admits at most [c] concurrent holders;
    further acquirers queue in FIFO order. A capacity-1 resource models a
    site's CPU: {!use} serialises service bursts, which is how the simulator
    reproduces the per-machine saturation of the paper's testbed.

    Waiters park on a {!Sim.waitq}, allocating only the continuation the
    runtime captures. A queued {!use}, on every transaction's path, parks
    with its hold ({!Sim.park_for}), so its process resumes once. *)

type t

(** [create ~sim ~capacity ()] — [capacity >= 1]; waiters resume on
    kernel [sim]. *)
val create : sim:Sim.t -> capacity:int -> unit -> t

(** Units currently free. *)
val available : t -> int

(** Processes waiting to acquire. *)
val queue_length : t -> int

(** Acquire one unit, blocking FIFO if none free. Must be called from a
    process of the resource's kernel. *)
val acquire : t -> unit

(** Release one unit, waking the next waiter.
    @raise Invalid_argument if no unit is held. *)
val release : t -> unit

(** [use t d] = acquire, hold for [d] simulated ms, release.
    @raise Invalid_argument before it takes a unit unless [d >= 0]. *)
val use : t -> float -> unit
