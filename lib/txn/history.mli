(** Global execution history for correctness checking.

    Every protocol records each operation it performs at the moment the
    corresponding lock is granted and the access executed. Under strict 2PL
    the per-item access order at a site {e is} the local conflict order: a
    conflicting later access can only run after the earlier transaction
    committed (or aborted) and released its lock. The serializability checker
    therefore needs no separate notion of commit order.

    Operations are tagged with the {e attempt} id that executed them; aborted
    attempts are discarded wholesale so only committed work is checked.

    Recording is disabled by default (benchmarks run with it off); tests and
    examples enable it. *)

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

(** [record t ~site ~item ~gid ~attempt ?version kind] appends an access to
    the per-(site, item) log. Multi-version protocols pass [?version]; see
    {!access}. No-op when disabled.
    @raise Invalid_argument if [site] is not below [n_sites] or [item] is
    negative. *)
val record :
  t -> site:int -> item:int -> gid:int -> attempt:int -> ?version:int -> kind -> unit

(** [discard_attempt t ~attempt] marks every access by [attempt] as aborted;
    the checker ignores them. *)
val discard_attempt : t -> attempt:int -> unit

(** [committed_log t ~site ~item] — the access log with aborted attempts
    filtered out, in execution order. *)
val committed_log : t -> site:int -> item:int -> access list

(** Every non-empty log's committed accesses, one array per (site, item) in
    execution order, the logs in no particular order; logs whose accesses
    were all discarded are left out. The checker's input. *)
val committed_logs : t -> access array list

(** All (site, item) pairs with a non-empty log, ascending. *)
val touched : t -> (int * int) list

(** Distinct gids with at least one committed access. *)
val committed_gids : t -> int list

(** Number of recorded accesses (including aborted ones). *)
val size : t -> int
