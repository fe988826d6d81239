(** Open-addressing map from ints to non-negative ints: linear probing with
    backward-shift deletion, so there are no tombstones, and bindings,
    lookups and removals allocate nothing once the arrays have grown to the
    peak number of bindings.

    It is not [Repdb_store.Hash_index]: that table holds any ['a] in a
    boxed entry per binding, so every insert allocates, and it rebuilds
    itself to clear tombstones, which a map that binds and removes a key per
    transaction would trigger every few hundred transactions. Users keep
    their records in a reused slot array and map keys to slot numbers. *)

type t

val create : unit -> t

(** Number of bindings. *)
val length : t -> int

(** [find t key] — the value bound to [key], or [-1] if unbound. *)
val find : t -> int -> int

(** [set t key v] binds [key] to [v], replacing any binding. [key] must not
    be [min_int], which marks a free cell. *)
val set : t -> int -> int -> unit

(** [remove t key] deletes the binding of [key], if any. *)
val remove : t -> int -> unit
