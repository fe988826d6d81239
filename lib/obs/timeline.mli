(** Fixed-interval time-series samples of cluster gauges and rates.

    A timeline is filled by a simulated-time ticker (see [Driver]): every
    [interval] ms it snapshots per-site replication lag, commit/abort counts
    for the elapsed window, lock-manager occupancy, and global in-flight
    message / active-transaction gauges. Storage is sim-agnostic — the
    sampler computes the values; this module only accumulates rows and
    renders them.

    Output is deterministic: rows are emitted in sample order with fixed
    [%.3f] formatting, so two runs with equal inputs produce byte-identical
    CSV/JSON. *)

type row = {
  r_time : float;  (** sample timestamp, ms *)
  r_active : int;  (** in-flight client transactions, cluster-wide *)
  r_inflight : int;  (** messages sent but not yet delivered *)
  r_commits : int array;  (** per-site commits in this window *)
  r_aborts : int array;  (** per-site aborts in this window *)
  r_lag : float array;  (** per-site replication lag, ms (0 when caught up) *)
  r_pending : int array;  (** per-site propagated updates not yet applied *)
  r_locks : int array;  (** per-site locks currently held *)
  r_waiters : int array;  (** per-site lock requests currently waiting *)
  r_phi : float array;
      (** per-site failure-detector suspicion level (median φ held by the
          other sites about this one); must be empty ([[||]]) when the
          timeline was created without [~phi:true], so heal-off CSVs keep
          their exact historical shape *)
}

type t

(** [~phi:true] (default false) appends a per-site [phi.N] column group:
    rows must then carry an [n_sites]-long [r_phi]. *)
val create : n_sites:int -> interval:float -> ?phi:bool -> unit -> t

(** Whether the φ column group is enabled. *)
val has_phi : t -> bool

(** Sampling interval, ms. *)
val interval : t -> float

val length : t -> int

(** Free-form metadata (protocol, seed, …) included in the CSV [#] header
    line and the JSON object. *)
val meta : t -> (string * string) list

val set_meta : t -> (string * string) list -> unit

(** Append a sample. All per-site arrays must have [n_sites] entries. *)
val push : t -> row -> unit

(** [to_csv t write] — the [#]-prefixed metadata comment line, the column
    header [t_ms,active_txns,msgs_inflight,commits.0,…,lock_waiters.N],
    then one line per row. *)
val to_csv : t -> (string -> unit) -> unit

val to_csv_string : t -> string
val to_json_string : t -> string
