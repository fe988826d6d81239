(** The one open-addressing hash index on int keys in [lib]: the paper's
    "hash index on the item identifier" behind {!Repdb_store.Store}, and the
    owner and attempt maps of [Lock_mgr] and {!Span}. It maps ints to
    non-negative ints with linear probing and backward-shift deletion, so
    there are no tombstones, and bindings, lookups and removals allocate
    nothing once the arrays have grown to the peak number of bindings.
    Users keep their records in a slot array and map keys to slot numbers. *)

type t

(** [create n] — an empty index that holds [n] bindings before it first
    grows. *)
val create : int -> t

(** Number of bindings. *)
val length : t -> int

(** [find t key] — the value bound to [key], or [-1] if unbound. *)
val find : t -> int -> int

(** [set t key v] binds [key] to [v], replacing any binding. [key] must not
    be [min_int], which marks a free cell. *)
val set : t -> int -> int -> unit

(** [remove t key] deletes the binding of [key], if any. *)
val remove : t -> int -> unit

(** [iter f t] applies [f key v] to every binding, in an unspecified
    order. *)
val iter : (int -> int -> unit) -> t -> unit
