(** Protocol registry: names to first-class protocol modules.

    [entries] is the single source of truth — the CLI protocol help,
    [repdb protocols] and the docs table are all rendered from it, so adding
    a protocol here is the whole registration step. *)

(** Every protocol with a one-line description, in presentation order. *)
val entries : (Protocol.t * string) list

(** All protocols: DAG(WT), DAG(T), BackEdge, PSL, Lazy-master, Central,
    Eager, Naive, OCC-epoch, SSI (= [List.map fst entries]). *)
val all : Protocol.t list

(** Protocols safe on arbitrary copy graphs (what the experiment sweeps with
    [b > 0] may run): BackEdge, PSL, Lazy-master, Central, Eager, Naive,
    OCC-epoch, SSI. *)
val cyclic_safe : Protocol.t list

(** The general-tree BackEdge variant ("backedge-gen"), kept out of {!all}
    because the paper evaluates the chain variant; used by the tree-routing
    ablation. *)
val backedge_general : Protocol.t

(** DAG(T) with the pipelined (multi-secondary) applier ("dag-t-mc"), the
    relaxation Section 3.2.3 alludes to. *)
val dag_t_pipelined : Protocol.t

(** [find name] — look up by {!Protocol.name}, dashes and case ignored;
    covers {!all} and the variants "backedge-gen" and "dag-t-mc". *)
val find : string -> Protocol.t option

val names : string list

(** [(name, one-line description)] pairs, in [entries] order. *)
val describe : unit -> (string * string) list
