(** Open-addressing hash index over integer keys.

    The paper notes that "fast access to an item is facilitated by a hash
    index on the item identifier"; this is that index, built from scratch
    rather than borrowed from the standard library: linear probing,
    power-of-two capacity, tombstone deletion, automatic growth at 2/3 load
    and compaction when tombstones dominate. *)

type 'a t

(** [create ?capacity ()] — initial capacity is rounded up to a power of
    two (default 16). *)
val create : ?capacity:int -> unit -> 'a t

(** Number of live bindings. *)
val length : 'a t -> int

(** [find t key] — [None] if unbound. Keys must be non-negative. *)
val find : 'a t -> int -> 'a option

(** [get t key] — like {!find} but allocation-free.
    @raise Not_found if unbound. *)
val get : 'a t -> int -> 'a

val mem : 'a t -> int -> bool

(** [set t key v] — insert or replace. *)
val set : 'a t -> int -> 'a -> unit

(** [remove t key] — delete if present; returns whether it was. *)
val remove : 'a t -> int -> bool

(** [iter f t] — apply [f key value] to every live binding (unspecified
    order). *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

(** [fold f t acc]. *)
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Current bucket-array capacity (for tests). *)
val capacity : 'a t -> int
