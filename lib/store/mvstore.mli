(** Per-site multi-version index over the copies placed at a site.

    The flat {!Store} keeps only the current value of each copy; snapshot
    protocols (ssi) additionally need to answer "what version was current as
    of timestamp [ts]?". An [Mvstore] runs beside the flat store and records,
    per item, the recent [(version, commit_ts)] history, newest first. It
    stores no payloads — the version number is the identity a snapshot read
    reports and the certifier validates.

    Chains are bounded ([cap] entries): a read older than the retained window
    returns [None] and the caller falls back to another copy (available
    copies) or aborts. Appends do not copy (a chain holds up to
    [2 * cap - 1] entries), but reads look at the newest [cap] only, so the
    window stays [cap] entries. Every copy starts with version 0 at
    timestamp -inf, so reads before the first committed write succeed. *)

type t

(** [create ?cap items] — one chain per copy placed at the site; [cap >= 1]. *)
val create : ?cap:int -> int list -> t

val mem : t -> int -> bool

(** [read_at t ~item ~ts] — the version current as of [ts]: the newest
    version with [commit_ts <= ts]. [None] if the item has no chain here or
    the chain has been truncated/seeded past [ts]. *)
val read_at : t -> item:int -> ts:float -> int option

(** Newest version in the chain, [None] if the item has no chain here. *)
val latest : t -> item:int -> int option

(** [append t ~item ~version ~commit_ts] — install a newly committed
    version; versions and timestamps must be monotone.
    @raise Invalid_argument on a gap the caller should have prevented. *)
val append : t -> item:int -> version:int -> commit_ts:float -> unit

(** [seed t ~item ~version ~commit_ts] — (re)start the chain at a single
    known version: state transfer of a newly replicated copy, or rebuilding
    after reconfiguration. Earlier versions become unreadable ([read_at]
    returns [None] for [ts < commit_ts]). *)
val seed : t -> item:int -> version:int -> commit_ts:float -> unit

(** Remove the chain for a copy no longer placed here. *)
val drop : t -> item:int -> unit

(** Items with a chain, ascending. *)
val items : t -> int list

(** [checksum t ~item] — deterministic digest of the newest chain entry's
    version (commit timestamps excluded: converging on the same version at
    different instants is not divergence). [None] if the item has no chain
    here. Used by the anti-entropy layer to cross-check version chains
    alongside {!Repdb_store.Store.checksum}. *)
val checksum : t -> item:int -> int option
