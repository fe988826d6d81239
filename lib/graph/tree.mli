(** Propagation trees for the DAG(WT) protocol.

    Given an acyclic copy graph, DAG(WT) propagates updates along a tree [T]
    with the property that whenever site [sj] is a child of site [si] in the
    copy graph, [sj] is a descendant of [si] in [T] (Section 2 of the paper).

    A value of type [t] is a rooted forest over vertices [0 .. n-1]; roots
    have parent [-1]. *)

type t

(** [parent t v] is the parent of [v], or [-1] for a root. *)
val parent : t -> int -> int

val n_vertices : t -> int

(** Children of [v], ascending. *)
val children : t -> int -> int list

(** Roots of the forest, ascending. *)
val roots : t -> int list

(** [is_ancestor t a v] — is [a] a (strict or equal) ancestor of [v]? *)
val is_ancestor : t -> int -> int -> bool

(** Depth of [v]; roots have depth 0. *)
val depth : t -> int -> int

(** [path_down t a v] — vertices from [a] (exclusive) to [v] (inclusive)
    along the tree, assuming [a] is an ancestor of [v].
    @raise Invalid_argument otherwise. *)
val path_down : t -> int -> int -> int list

(** Vertices of the subtree rooted at [v], including [v]. *)
val subtree : t -> int -> int list

(** [of_parents parents] wraps a parent array.
    @raise Invalid_argument if the array does not describe a forest. *)
val of_parents : int array -> t

(** [chain_of_order order] — the chain [order.(0) -> order.(1) -> ...]. This
    is the variant the paper's implementation uses: sites adjacent in a total
    order consistent with the DAG (Section 5.1). *)
val chain_of_order : int array -> t

(** [chain_components g ~order] — one chain per weakly-connected component
    of [g], its vertices in the order they take in [order] (a permutation
    of [g]'s vertices); components are independent trees. *)
val chain_components : Digraph.t -> order:int list -> t

(** [of_dag g] builds a forest satisfying the required property:
    {!chain_components} in a topological order of [g]. Falls back on less
    routing than a single global chain while remaining provably correct.
    @raise Invalid_argument if [g] is not a DAG. *)
val of_dag : Digraph.t -> t

(** [satisfies g t] — does [t] have the required property for copy graph [g]
    (every copy-graph child is a tree descendant)? *)
val satisfies : Digraph.t -> t -> bool

val pp : Format.formatter -> t -> unit
