(** The index graph: the common representation of every structural
    summary in this library (label-split, A(k), 1-index, D(k)).

    An index graph over a data graph [G] partitions [G]'s nodes into
    extents.  Each index node carries:
    - its (shared) label,
    - its extent (the data nodes it summarizes),
    - its local similarity [k]: the guarantee that all data nodes of
      the extent are at least k-bisimilar (Definition 2),
    - its requirement [req]: the local similarity the current query
      load asks of this label (Section 4.2).

    There is an index edge [A -> B] exactly when some data edge runs
    from a node of [extent A] to a node of [extent B].

    Index nodes can be split in place ({!split}); this is the
    primitive behind D(k) promotion and the A(k) propagate update.
    Splitting retires the old node id and allocates fresh ids, so ids
    are stable for as long as a node is alive.

    Index edges live in a {!Dkindex_graph.Adjacency} over the node ids,
    the same store {!Data_graph} keeps its edges in: sorted CSR runs
    per direction plus an overflow layer that absorbs mutations and is
    folded back in amortized batches.  Ids allocated by {!split} live
    in the overflow layer until the next fold.  All
    [iter_*]/[exists_*] traversals are allocation-free. *)

open Dkindex_graph

type inode = private {
  id : int;
  label : Label.t;
  mutable extent : int array;  (** sorted increasing; do not mutate *)
  mutable extent_size : int;
  mutable k : int;
  mutable req : int;
}

type t

val k_infinite : int
(** Local similarity of 1-index nodes: sound for any query length. *)

(** {1 Construction} *)

val of_partition :
  ?mode:[ `Auto | `In_ram | `External ] ->
  Data_graph.t ->
  cls:int array ->
  n_classes:int ->
  k_of_class:(int -> int) ->
  req_of_class:(int -> int) ->
  t
(** Build an index graph from a partition of the data nodes given as a
    [cls] map (data node -> class id in [0 .. n_classes-1]).  Index
    node ids coincide with class ids.  @raise Invalid_argument if a
    class is empty or mixes labels.

    [mode] selects how the data edges are projected and deduplicated
    into the index CSR: [`In_ram] keeps the distinct (class, class)
    pairs in a hash table / byte matrix, [`External] streams every
    projected pair through {!Dkindex_graph.Ext_sort} so the working
    set is bounded by the sorter budget rather than the number of
    distinct index edges.  [`Auto] (the default) decides as
    {!Kbisim.resolve_mode} does for refinement.  Both paths produce
    bit-identical CSRs. *)

val of_partition_with_edges :
  Data_graph.t ->
  cls:int array ->
  n_classes:int ->
  k_of_class:(int -> int) ->
  req_of_class:(int -> int) ->
  children:Int_vec.t * Int_vec.t ->
  t
(** {!of_partition}, but adopting the given index adjacency
    ([children] = CSR offsets + sorted neighbor runs over class ids;
    parents are derived by counting sort) instead of projecting every
    data edge — O(n + index edges) instead of O(data edges).  The
    vectors are adopted, not copied, so a container loader can pass
    views of its mapped sections.  Only the CSR {i shape} is
    validated; callers vouch for its content. *)

(** {1 Accessors} *)

val data : t -> Data_graph.t
val node : t -> int -> inode
(** @raise Invalid_argument if the id is dead or out of range. *)

val is_alive : t -> int -> bool
val cls : t -> int -> int
(** Index node id of a data node. *)

val root_node : t -> int
(** Index node containing the data root. *)

val n_nodes : t -> int
(** Number of live index nodes (the "index size" of the figures). *)

val max_id : t -> int
(** One past the largest id ever allocated (dead or alive).  Dense
    per-node working arrays should be sized by this. *)

val n_edges : t -> int
(** Number of live index edges, in O(1). *)

val iter_alive : t -> (inode -> unit) -> unit
val fold_alive : t -> init:'a -> f:('a -> inode -> 'a) -> 'a
val nodes_with_label : t -> Label.t -> int list
(** Live index nodes carrying the label.  The per-label bucket is only
    compacted when a node with that label has actually died since the
    last read; otherwise this returns the cached list as-is. *)

val count_with_label : t -> Label.t -> int
(** Number of live index nodes carrying the label, in O(1). *)

val extent_mem : inode -> int -> bool
(** Whether a data node belongs to the extent (binary search). *)

val extent_min : inode -> int
(** Smallest data node id in the extent (its canonical
    representative). *)

val max_k : t -> int
(** Largest finite local similarity among live nodes (0 for an empty
    index). *)

(** {1 Adjacency} *)

val iter_children : t -> int -> (int -> unit) -> unit
(** Apply to every index child of a node.  Allocation-free on the CSR
    portion.  Order is unspecified (CSR run first, then overflow). *)

val iter_parents : t -> int -> (int -> unit) -> unit

val exists_children : t -> int -> (int -> bool) -> bool
(** Short-circuiting existential over the children. *)

val exists_parents : t -> int -> (int -> bool) -> bool

val children_list : t -> int -> int list
(** Children as a sorted, duplicate-free list (allocates). *)

val parents_list : t -> int -> int list

val has_index_edge : t -> int -> int -> bool
(** [has_index_edge t a b] — whether the index edge [a -> b] exists.
    Binary search on the CSR run plus an overflow probe. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** {1 Mutation} *)

val split : t -> int -> int array list -> int list
(** [split t id groups] replaces index node [id] by one node per group;
    [groups] must be a partition of [id]'s extent into non-empty,
    sorted arrays.  New nodes inherit label, [k] and [req]; edges are
    recomputed from the data graph.  Returns the new ids ([ [id] ]
    unchanged if a single group is passed).  @raise Invalid_argument if
    the groups do not partition the extent. *)

val resolve : t -> int -> int list
(** Live index nodes descending from a possibly-retired id (follows
    {!split} forwarding).  The identity on live ids. *)

val add_index_edge : t -> int -> int -> unit
(** Record an index edge (used right after a data edge insertion).
    No-op if present. *)

val remove_index_edge : t -> int -> int -> unit
(** Drop an index edge (used after a data edge deletion left no edge
    between the two extents).  No-op if absent. *)

val set_k : t -> int -> int -> unit
val set_req : t -> int -> int -> unit

(** {1 Cache invalidation} *)

val generation : t -> int
(** Monotone counter bumped by every mutation ({!split},
    {!add_index_edge}, {!remove_index_edge}, {!set_k}, {!set_req},
    {!touch}).  Caches over query results snapshot it and drop their
    contents when it moves ({!Validation_cache}). *)

val touch : t -> unit
(** Explicitly bump {!generation}.  Update drivers call this when they
    change state the index graph cannot see itself (e.g. a data-graph
    edge insertion that maps to an already-present index edge but
    still changes validation answers). *)

(** {1 Serving} *)

val prepare_serving : t -> unit
(** Flatten index and data adjacency into pure CSR form and compact
    every label bucket; on a freshly built index, which has no pending
    updates and no dead classes, it does nothing.  dkserve runs it once,
    at launch; later writes leave the overflow layers to fold
    themselves, amortized.  The data graph's label table
    ({!Dkindex_graph.Data_graph.nodes_with_label}, read only by the raw
    regex plan) is left to its first use: one event loop answers every
    read, so no two readers race to build it. *)

val keep_sorted : t -> unit
(** {!Dkindex_graph.Adjacency.keep_sorted} on the index edges and the
    data graph: traversals then read every adjacency in the order
    {!prepare_serving} leaves, so their answers and visit counts equal
    a flattened copy's, whatever updates are pending. *)

(** {1 Derived views} *)

val as_data_graph : t -> Data_graph.t * int array
(** View the live index graph as a data graph (Theorem 2: an index can
    be rebuilt from any of its refinements).  Returns the derived graph
    and a map from derived node id to index node id.  The derived node
    [0] is the index node holding the data root. *)

val compact : t -> t
(** A fresh, densely-numbered copy of the live index over the same data
    graph (many splits leave retired slots behind).  Forwarding history
    is dropped. *)

val dense_classes : t -> int array * int array * int array
(** [(cls, order, of_id)]: the canonical dense renumbering of the live
    index nodes, in first-touch order over data nodes (scanning data
    node ids ascending, an index node takes the next dense id when the
    first member of its extent is seen).  [cls.(u)] is data node [u]'s
    dense class, [order.(c)] the live id of dense class [c], and
    [of_id.(id)] the dense class of live id [id] ([-1] for dead ids;
    length {!max_id}).  The numbering {!Index_serial} writes and
    {!copy} produces. *)

val dense_children : t -> order:int array -> of_id:int array -> Int_vec.t * Int_vec.t
(** [dense_children t ~order ~of_id], with [order] and [of_id] from
    {!dense_classes}: the live child CSR [(off, arr)] in the dense
    numbering, each run sorted increasing.  What {!copy} builds from
    and {!Index_serial} saves.  Reads [t] only. *)

val copy : t -> t
(** A deep copy: exactly what a text round trip ([Index_serial.to_string],
    then [Index_serial.of_string]) produces, built from the live
    structures in O(data nodes + data edges + index edges) with no
    text in between.
    - The same dense first-touch numbering as {!dense_classes}, the
      same [k]/[req] per class, the same index edges (and therefore
      the same [Index_serial.to_string] text and
      {!partition_signature}).
    - Its own data graph ({!Data_graph.copy}: fresh CSR vectors, label
      pool and values copied), so a copy of a container-mapped index
      lives entirely in freshly allocated memory, and mutating either
      side never affects the other.
    - A fresh {!generation} (0) and no {!split} forwarding history.

    Reads [t] only (no CSR flattening): safe while other domains
    query [t]. *)

val partition_signature : t -> (int * int) array
(** For testing: array indexed by data node of
    [(canonical class representative, k of its class)], where the
    representative is the smallest data node id in the class.  Two
    index graphs are structurally equal iff their signatures are. *)

val check_invariants : t -> unit
(** Validate internal consistency and the D(k)-index definition
    (Definition 3: [k(parent) >= k(child) - 1] on every edge); raises
    [Failure] with a description otherwise.  For tests. *)

val stats_line : t -> string
