(** D(k)-index update algorithms (Section 5).

    Two source-data updates are supported, following the paper (and
    Kaushik et al., VLDB 2002): insertion of a whole subgraph (a new
    document) and insertion of a single edge (a small incremental
    change, e.g. a new IDREF).

    The edge-addition update never touches the data graph's extents:
    it only lowers the local similarities of the affected index nodes
    (Algorithms 4 and 5), which is why it is much cheaper than the
    propagate strategy used for the 1-index and A(k)-index. *)

open Dkindex_graph

val update_local_similarity : Index_graph.t -> u:int -> v:int -> int
(** Algorithm 4.  [u], [v] are {e index} node ids; computes the new
    local similarity of [v] under a new index edge [u -> v]: the
    largest [kN <= min (k u + 1) (k v)] such that every label path of
    length [kN] entering [v] through [u] already matches [v] in the
    current index graph.  Call before inserting the edge.  If the
    index edge [u -> v] already exists the answer is the bound itself;
    otherwise an infinite bound (both nodes of a 1-index) is first
    lowered to [Index_graph.max_k t + 1], so the search terminates on
    cyclic indexes. *)

val add_edge : Index_graph.t -> int -> int -> unit
(** Algorithm 5.  [add_edge t u v] with {e data} node ids: inserts the
    data edge, the induced index edge, lowers [cls v]'s local
    similarity to the Algorithm 4 value, and broadcasts the decrease
    breadth-first to descendants ([k(X) <= k(W) + 1] along every edge,
    stopping where the constraint already holds). *)

val remove_edge : Index_graph.t -> int -> int -> unit
(** Edge deletion, built on the same local-similarity machinery (the
    paper notes that "all other update operations ... can be built on
    these two basic cases").  [remove_edge t u v] with data node ids
    deletes the data edge.  If [v] retains another parent inside
    [cls u]'s extent, the label-path sets of [cls v]'s members are
    unchanged and no similarity moves; otherwise [cls v]'s similarity
    conservatively drops to 0 and the decrease is broadcast downwards
    (as in Algorithm 5).  The index edge is dropped when no data edge
    between the two extents remains.
    @raise Invalid_argument if the data edge does not exist. *)

val add_subgraph :
  Index_graph.t ->
  Data_graph.t ->
  reqs:Dk_index.requirements ->
  Data_graph.t * Index_graph.t
(** Algorithm 3.  [add_subgraph t h ~reqs] grafts document [h] (its
    root is identified with the data root) into the data graph,
    builds the D(k)-index of [h] alone, places it under the original
    index, and rebuilds (Theorem 2) treating the combined index as a
    data graph.  Returns the new data graph and its D(k)-index. *)
