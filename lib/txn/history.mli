(** Global execution history for correctness checking.

    Every protocol records each operation it performs at the moment the
    corresponding lock is granted and the access executed. Under strict 2PL
    the per-item access order at a site {e is} the local conflict order: a
    conflicting later access can only run after the earlier transaction
    committed (or aborted) and released its lock. The serializability checker
    therefore needs no separate notion of commit order.

    Operations are tagged with the {e attempt} id that executed them; aborted
    attempts are discarded wholesale so only committed work is checked.

    One flat int array holds the accesses in record order, each with its
    log's previous one; {!Repdb_obs.Int_index}es map (site, item) to logs
    and hold the discarded attempts. Recording and discarding allocate
    nothing once the arrays have grown. Recording is disabled by default
    (benchmarks run with it off; a disabled history allocates nothing
    large); tests and examples enable it. *)

type t

type kind = R | W

type access = {
  gid : int;  (** Global transaction id (shared by all its subtransactions). *)
  attempt : int;  (** Execution attempt id; unique per (re)execution. *)
  kind : kind;
  version : int option;
      (** For multi-version protocols: the item version read, or installed by
          a write. [None] (lock-based protocols) means the log position is the
          conflict order; any versioned access in a log switches the checker
          to version-derived edges for that log. *)
}

(** [create ~n_sites ()] — an empty history for sites [0 .. n_sites-1]. *)
val create : ?enabled:bool -> n_sites:int -> unit -> t

val enabled : t -> bool

(** [record t ~site ~item ~gid ~attempt kind] appends an unversioned access
    to the per-(site, item) log: one index probe, six stores. No-op when
    disabled. @raise Invalid_argument if [site] is not below [n_sites] or
    [item] is negative. *)
val record : t -> site:int -> item:int -> gid:int -> attempt:int -> kind -> unit

(** {!record} for multi-version protocols; see {!access}. [|version| < 2^60]. *)
val record_versioned :
  t -> site:int -> item:int -> gid:int -> attempt:int -> version:int -> kind -> unit

(** [discard_attempt t ~attempt] marks every access by [attempt] as aborted;
    the checker ignores them. One index store; [attempt <> min_int]. *)
val discard_attempt : t -> attempt:int -> unit

(** [committed_log t ~site ~item] — the access log with aborted attempts
    filtered out, in execution order; O(the log's length). *)
val committed_log : t -> site:int -> item:int -> access list

(** The checker's input, fresh on every call in O(size + logs): committed
    accesses by log, in execution order; log [l]'s are [gids.(j)], [kvs.(j)]
    for [start.(l) <= j < start.(l + 1)]. [kvs.(j)] has bit 0 set for a
    write, bit 1 for a versioned access, whose version is [kvs.(j) asr 2]. *)
type grouped = { start : int array; gids : int array; kvs : int array }

val grouped : t -> grouped

(** All (site, item) pairs with a non-empty log, ascending. *)
val touched : t -> (int * int) list

(** Distinct gids with at least one committed access, ascending. *)
val committed_gids : t -> int list

(** Number of recorded accesses (including aborted ones). *)
val size : t -> int
