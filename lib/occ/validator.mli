(** Backward validation for epoch-based OCC.

    The validator owns the authoritative latest-version table. A transaction
    presents the versions it read during optimistic execution and the items
    it wants to write; it passes iff every read is still the latest certified
    version — i.e. no transaction that validated since it began overwrote
    anything it observed. Winners atomically bump the versions of their write
    set, so validation order {e is} the serialization order: every ww, wr and
    rw conflict between winners agrees with it.

    Pure and deterministic. *)

type txn = {
  gid : int;
  reads : (int * int) list;  (** (item, version observed). *)
  writes : int list;  (** Ascending, distinct. *)
}

type t

val create : unit -> t

(** Latest certified version of [item] (0 before any write certifies). *)
val latest : t -> int -> int

(** [validate t txn] — [Some writes] with the newly assigned version per
    written item if every read is current (the table is bumped), [None] if
    any read is stale (the table is untouched). *)
val validate : t -> txn -> (int * int) list option

val validated : t -> int
val rejected : t -> int
