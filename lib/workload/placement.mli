(** Data distribution (Section 5.2 of the paper).

    Primary copies are spread uniformly over the [m] sites. Of the primaries
    at each site, a fraction [r] is replicated. For a replicated item with
    primary at site [si]: with probability [b] every other site is a
    candidate for holding a replica, and with probability [1-b] only sites
    {e following} [si] in the total site order are; each candidate then
    receives a replica with probability [s]. With the chain propagation order
    used by the evaluated BackEdge variant, an edge [si -> sj] of the copy
    graph with [j < i] is a backedge.

    Representation: per-item replica sets are {e sorted int arrays} and the
    per-site item indices are precomputed once at construction, so membership
    is O(log r) with no allocation and [placed_at]/[primaries_at] are O(1)
    array slices — the layout that keeps partial-replication clusters of
    hundreds of sites and 100k+ items cheap on every protocol apply path. *)

type t = private {
  n_sites : int;
  n_items : int;
  primary : int array;  (** item -> primary site. *)
  replicas : int array array;
      (** item -> secondary sites, sorted ascending. Treat as read-only. *)
  placed : int array array;
      (** site -> items placed there (primary or replica), ascending. *)
  prims : int array array;  (** site -> items whose primary is there, ascending. *)
  graph : Repdb_graph.Digraph.t;  (** memoized copy graph; treat as read-only. *)
  backedge_list : (int * int) list;  (** memoized backedges. *)
  edge_mult : (int, int) Hashtbl.t;
      (** copy-graph edge [(u, v)] packed as [u * n_sites + v] -> number of
          items contributing it; the incremental [apply_step] memo. Treat as
          read-only. *)
}

(** [make ~n_sites ~n_items ~primary ~replicas] builds a placement and
    eagerly computes the copy-graph, backedge and per-site index memos (so a
    value can be shared read-only across domains with no lazy initialization
    race). Replica lists need not be sorted; duplicates and the item's own
    primary site are dropped. *)
val make : n_sites:int -> n_items:int -> primary:int array -> replicas:int list array -> t

(** [generate rng params] draws a placement. *)
val generate : Repdb_sim.Rng.t -> Params.t -> t

(** [apply_step t step] — a placement with one reconfiguration step applied.
    Incremental: only the touched item rows, site rows and crossed copy-graph
    edges are rebuilt (everything untouched is shared with [t]); a step that
    changes nothing returns [t] itself. Primaries never move. Redundant
    operations (adding an existing copy, dropping an absent one, rebalancing
    onto the primary) are no-ops; a rebalance moves every replica held at
    [from_site] to [to_site]. *)
val apply_step : t -> Repdb_reconfig.Reconfig.step -> t

(** Items whose primary copy is at [site], ascending. O(1): the precomputed
    slice itself — do not mutate. *)
val primaries_at : t -> int -> int array

(** Items placed at [site] (primary or replica), ascending. O(1): the
    precomputed slice itself — do not mutate. *)
val placed_at : t -> int -> int array

(** [has_copy t ~site item] — primary or replica at [site]. O(log r). *)
val has_copy : t -> site:int -> int -> bool

(** [has_replica t ~site item] — secondary copy at [site] (the primary does
    not count). O(log r). *)
val has_replica : t -> site:int -> int -> bool

(** [replicates_any t ~site items] — [site] holds a replica of some item of
    [items]. O(|items| log r), no allocation. *)
val replicates_any : t -> site:int -> int list -> bool

(** [local_replicas t site writes] — the written items replicated at [site]
    (the ones a secondary subtransaction applies there), in [writes]' order.
    O(log r) each. Returns [writes] itself, allocating nothing, when every
    item is replicated at [site]. *)
val local_replicas : t -> int -> int list -> int list

(** [is_primary t ~site item]. *)
val is_primary : t -> site:int -> int -> bool

(** [placed_index t ~site item] — the rank of [item] in [placed_at t site],
    or [-1] if not placed there. O(log p); the dense-slot remap used by
    per-site lock tables at scale. *)
val placed_index : t -> site:int -> int -> int

(** The memoized copy graph: edge [si -> sj] iff some item has its primary at
    [si] and a replica at [sj]. O(1); do not mutate the result. *)
val copy_graph : t -> Repdb_graph.Digraph.t

(** Memoized backedges of the copy graph under the identity site order (the
    order used by the chain tree): edges [si -> sj] with [j < i]. O(1). *)
val backedges : t -> (int * int) list

(** Number of replicas in the system (secondary copies, excluding
    primaries). *)
val n_replicas : t -> int

(** Number of distinct replicated items. *)
val n_replicated_items : t -> int
