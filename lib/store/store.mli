(** In-memory per-site storage engine.

    Stand-in for the DataBlitz main-memory storage manager used in the paper:
    the whole database lives in memory and items are reached through a hash
    index on the item identifier ({!Repdb_obs.Int_index}, mapping an item to
    its copy's slot). A store holds only the copies (primary or replica)
    placed at its site; touching an item that is not placed there is a
    programming error and raises. *)

type item = int
(** Items are dense integer identifiers, [0 .. n-1] cluster-wide. *)

type t

(** [create ~site items] builds the store for [site] holding [items]. *)
val create : site:int -> item list -> t

val site : t -> int

(** [mem t item] — is a copy of [item] placed here? *)
val mem : t -> item -> bool

(** [read t item] returns the current value of the local copy.
    @raise Invalid_argument if [item] is not placed at this site. *)
val read : t -> item -> Value.t

(** [apply t item ~writer ?payload ()] installs a committed write.
    @raise Invalid_argument if [item] is not placed at this site. *)
val apply : t -> item -> writer:int -> ?payload:string -> unit -> unit

(** [install t item v] installs [v] wholesale, creating the copy if absent —
    state transfer of an item newly replicated here, or a healed copy.
    Hooked, so an attached redo log records the install. *)
val install : t -> item -> Value.t -> unit

(** {1 Durability hooks (used by {!Wal})} *)

(** A committed mutation, as observed by the write hook. *)
type write_event =
  | Applied of { item : item; writer : int; payload : string option }
  | Installed of { item : item; value : Value.t }

(** [set_write_hook t f] — call [f] after every {!apply} / {!install}. *)
val set_write_hook : t -> (write_event -> unit) -> unit

(** Current contents, ascending by item. *)
val contents : t -> (item * Value.t) list

(** [restore t item v] — (re)install a binding wholesale, creating it if
    absent; used by recovery and never hooked. *)
val restore : t -> item -> Value.t -> unit

(** Items placed at this site, ascending. *)
val items : t -> item list

(** {1 Anti-entropy digests}

    Deterministic content summaries used by the self-healing subsystem's
    Merkle-style digest exchange ({!Repdb_heal}): two stores agree on a range
    digest iff (modulo 62-bit collisions) their copies in the range are
    value-equal. All digests are stable across repeats and [-j] levels. *)

(** [checksum t item] — {!Value.checksum} of the local copy.
    @raise Invalid_argument if [item] is not placed at this site. *)
val checksum : t -> item -> int

(** [digest_over t items] — commutative combined digest over the listed
    items' local copies (absent items are skipped). The item id is folded
    into each summand, so permuting values across items changes the digest.
    Both ends of a digest-exchange session compute this over the shared item
    set. *)
val digest_over : t -> item list -> int
