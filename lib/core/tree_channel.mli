(** The lazy tree half of DAG(WT) and the BackEdge protocol (Sections 2
    and 4): each site applies the secondary subtransactions from its single
    tree parent in FIFO order and forwards them, atomically with their
    commit, to the {e relevant} children — those whose subtree holds a
    replica of an updated item.

    A protocol may send its own messages (of type ['x]) over the same FIFO
    links, so they never overtake the updates sent before them; DAG(WT)
    sends none. Every message carries the epoch it was sent in and is
    dropped on arrival when stale ({!Epoch.stale}). *)

module Tree = Repdb_graph.Tree
module Placement = Repdb_workload.Placement

(** Per-site bitmap over items: [m * ceil(n/8)] bytes, unioned bottom-up
    with 64-bit word operations. *)
type subtree_map

(** [subtree_replicas placement tree] — bit [(site, item)] is set iff some
    site in [subtree tree site] holds a replica of [item]. *)
val subtree_replicas : Placement.t -> Tree.t -> subtree_map

(** [in_subtree maps ~site item] — does some site in [subtree site] hold a
    replica of [item]? O(1). *)
val in_subtree : subtree_map -> site:int -> int -> bool

(** [relevant_children maps tree site writes] — the children of [site] whose
    subtree holds a replica of some written item; [Tree.children tree site]
    itself, not a copy, when that is all of them. *)
val relevant_children : subtree_map -> Tree.t -> int -> int list -> int list

type 'x t

(** [create cluster ~describe tree] — a channel over [tree] with its own
    network; updates are traced as ["secondary"], ['x] messages by
    [describe]. *)
val create : Cluster.t -> describe:('x -> string * int) -> Tree.t -> 'x t

val tree : 'x t -> Tree.t

(** Epoch switch (cluster drained, placement already swapped): route along
    [tree] from now on. *)
val retree : 'x t -> Tree.t -> unit

(** [forward ch ~site ~gid writes] — at the commit of [gid] at [site], send
    its update to the relevant tree children. Non-blocking, so it fits in
    an atomic commit section. Returns the number of sends. *)
val forward : 'x t -> site:int -> gid:int -> int list -> int

val send_extra : 'x t -> src:int -> dst:int -> 'x -> unit

(** [spawn_applier ?on_retry ch ~on_extra site] — [site]'s applier: it
    receives in FIFO order, charging [cpu_msg] each; it applies and forwards
    each update, running [on_retry site items] after every failed lock
    round, and passes each ['x] to [on_extra site]. Spawned only at a site
    with a tree parent, or at every site when the placement can change
    mid-run ({!Epoch.planned}). *)
val spawn_applier :
  ?on_retry:(int -> int list -> unit) -> 'x t -> on_extra:(int -> 'x -> unit) -> int -> unit
