(** Experiment harness: the paper's evaluation (Section 5: Figures 2-3 and
    §5.3.4), the sweeps implied by the ranges of Table 1, and our own
    ablations and extensions. Every experiment is one {!registry} entry,
    reached by id; [repdb experiment <id>] fronts them and DESIGN.md §4 maps
    each id to the result it backs. *)

module Params = Repdb_workload.Params

type point = {
  x : float;  (** The swept parameter value. *)
  reports : (string * Driver.report) list;  (** protocol name -> report. *)
}

type figure = {
  id : string;  (** The entry's id, e.g. "fig2a". *)
  title : string;  (** The entry's [doc]. *)
  xlabel : string;
  points : point list;
}

(** What an experiment produces: a swept figure, or a flat list of labelled
    reports. *)
type outcome = Figure of figure | Reports of (string * Driver.report) list

type entry = {
  exp_id : string;  (** The CLI name, e.g. "fig2a". *)
  doc : string;  (** One-line description: the help text and the figure title. *)
  run : pool:Repdb_par.Pool.t option -> base:Params.t -> steps:int -> outcome;
      (** Runs every protocol at every swept value on parameters derived from
          [base]. Probability axes take [steps + 1] evenly spaced values in
          [0,1]; the other entries ignore [steps]. With a pool the
          independent [Driver.run]s execute on its domains; results are
          placed by input index and each run owns all of its mutable state,
          so the outcome is identical to the sequential one. *)
}

(** Every experiment, in presentation order. The CLI derives both its help
    text and its dispatch from this list so the two cannot drift. *)
val registry : entry list

val ids : string list
val find : string -> entry option

(** [timeline_files outcome] — every run timeline the outcome collected
    (present when the base parameters had [timeline_every > 0]), paired with
    a filesystem-safe basename ([<figure>_x<value>_<protocol>] for figures,
    the report label for flat report lists). The CLI writes each as
    [<basename>.csv] under [--timeline-dir]. *)
val timeline_files : outcome -> (string * Repdb_obs.Timeline.t) list

(** {1 Oracles} *)

(** [violations id outcome] — one ["<id> x=<x> <label>: <witness>"] line
    (["<id> <label>: <witness>"] for a report list) per report whose
    replicas diverged, whose recorded history is not one-copy serializable,
    or in which some transaction exhausted its retries. Naive's non-1SR
    history is expected (Example 1.1's negative control) and never
    listed. *)
val violations : string -> outcome -> string list

(** {1 Rendering} *)

val pp_figure : Format.formatter -> figure -> unit
val pp_reports : Format.formatter -> (string * Driver.report) list -> unit

(** CSV text (one line per point and protocol:
    [figure,x,protocol,throughput_per_site,abort_rate,avg_response,p99_response,avg_propagation,messages,reconfigs,state_transfers,reconfig_stall_ms,<aborts_* columns>,stale_reads,max_staleness_ms,unavail_ms]
    where the [aborts_*] block has one count column per
    {!Repdb_txn.Txn.abort_reason} constructor in
    [Txn.all_abort_reasons] order, e.g. [aborts_lock_timeout] ...
    [aborts_dangerous_structure]). *)
val to_csv : figure -> string

(** ASCII plot of per-site throughput against the swept parameter, one glyph
    per protocol — a terminal rendition of the paper's figures. *)
val render_ascii : figure -> string
