(** The data graph: a rooted, directed, node-labeled graph.

    This is the paper's data model (Section 3): XML and other
    semi-structured data are modeled as a directed graph whose nodes
    carry a label and a unique identifier.  Tree edges (containment)
    and reference edges (ID/IDREF, XLink) are not distinguished.  A
    single root node carries the distinguished label [ROOT].

    Node identifiers are dense integers [0 .. n_nodes - 1]; the root is
    always node [0].  Adjacency is mutable only through {!add_edge} and
    {!remove_edge}, which support the paper's edge updates
    (Section 5.2); node sets are fixed at construction (subgraph
    addition builds a new graph, see {!graft}).

    Edges live in an {!Adjacency} store, the one index graphs keep
    their edges in too: sorted CSR runs per direction ({!Int_vec}),
    so {!iter_children}/{!iter_parents} are allocation-free flat loops
    and {!has_edge} is a binary search in the common case, plus an
    overflow layer for updates, folded back into fresh flat vectors
    in amortized batches.

    The CSR sections can also be views into a memory-mapped
    {!Container} file ({!of_csr}): queries run identically on a mapped
    graph, and the first overflow fold after a mutation migrates the
    graph to fresh heap-side vectors.

    Payloads are a {!Payloads.t}: two immutable flat arrays, the
    payload-carrying node ids strictly increasing and their strings
    beside them.  {!value} is a binary search, O(log n_values);
    {!iter_values} walks the arrays in node order; {!copy} shares
    them. *)

type t

(** {1 Accessors} *)

val pool : t -> Label.Pool.t
val n_nodes : t -> int
val n_edges : t -> int
val root : t -> int
val label : t -> int -> Label.t
val label_name : t -> int -> string
val children : t -> int -> int list
(** Materialized child list, sorted increasing.  Allocates; prefer
    {!iter_children} on hot paths. *)

val parents : t -> int -> int list
(** Materialized parent list, sorted increasing.  Allocates; prefer
    {!iter_parents} on hot paths. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val value : t -> int -> string option
(** The atomic payload of a [VALUE] node (text content, attribute
    value), if one was recorded.  Structural algorithms ignore
    payloads; queries with value predicates read them during
    validation.  A binary search: O(log {!n_values}). *)

val iter_children : t -> int -> (int -> unit) -> unit
val iter_parents : t -> int -> (int -> unit) -> unit

val iter_children_sorted : t -> int -> (int -> unit) -> unit
(** [iter_children_sorted g u f] applies [f] to {!children}[ g u] in
    increasing order without materializing the list: the CSR run, with
    tombstones skipped and [u]'s overflow additions merged in.
    Read-only (no flattening) and allocation-free unless [u] has
    overflow additions. *)

val exists_children : t -> int -> (int -> bool) -> bool
(** [exists_children g u pred] is [List.exists pred (children g u)]
    without materializing the list; stops at the first hit. *)

val exists_parents : t -> int -> (int -> bool) -> bool
(** [exists_parents g u pred] is [List.exists pred (parents g u)]
    without materializing the list; stops at the first hit. *)

val iter_nodes : t -> (int -> unit) -> unit

val flatten : t -> unit
(** Fold any pending overflow updates back into the flat CSR arrays.
    Semantically a no-op; called implicitly by {!csr_children} and
    {!csr_parents}. *)

val keep_sorted : t -> unit
(** {!Adjacency.keep_sorted} on the graph's edges. *)

val csr_children : t -> Int_vec.t * Int_vec.t
(** [(off, arr)]: node [u]'s children are [arr.(off.(u)) ..
    arr.(off.(u + 1) - 1)], sorted increasing.  Flattens pending
    updates first.  The vectors are the graph's own storage — valid
    until the next mutation, never to be written.  For allocation-free
    hot loops that cannot afford a closure per node. *)

val csr_parents : t -> Int_vec.t * Int_vec.t
(** The parent-direction counterpart of {!csr_children}. *)

val label_codes : t -> Int_vec.t
(** Node label codes ([Label.to_int] of {!label}), the graph's own
    storage — never to be written. *)

val iter_values : t -> (int -> string -> unit) -> unit
(** Visit every (node, payload) pair in increasing node order: a walk
    of the payload arrays, no sort. *)

val n_values : t -> int
(** The number of nodes carrying a payload. *)

val payloads : t -> Payloads.t
(** The payloads themselves, for encoders that walk them by position. *)

val iter_edges : t -> (int -> int -> unit) -> unit
val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val nodes_with_label : t -> Label.t -> int list
(** All nodes carrying the given label, in increasing id order.
    Computed once on demand and invalidated by nothing ({!add_edge}
    does not change labels). *)

val has_edge : t -> int -> int -> bool

val overflow : t -> int * int
(** [(additions, tombstones)] pending in the overflow layer: [(0, 0)]
    once the graph is flat. *)

(** {1 Construction and mutation} *)

val make :
  ?values:(int * string) list ->
  pool:Label.Pool.t ->
  labels:Label.t array ->
  edges:(int * int) list ->
  unit ->
  t
(** [make ~pool ~labels ~edges ()] builds a graph over nodes
    [0 .. Array.length labels - 1] with node [0] as root.  Duplicate
    edges are kept once; self-loops are allowed (they can arise from
    IDREFs).  [values] attaches atomic payloads to nodes, in any
    order; the first entry for a node wins.
    @raise Invalid_argument on out-of-range endpoints or if [labels]
    is empty. *)

val of_edges :
  ?values:Payloads.t ->
  pool:Label.Pool.t ->
  label_codes:Int_vec.t ->
  (int array * int array * int) list ->
  t
(** {!make} with the labels as codes of [pool] and the edges as
    segments of two parallel arrays: [(src, dst, len)] holds the edges
    [src.(i) -> dst.(i)] for [i < len].  The arrays are read in place
    by {!Adjacency.of_edges}, which checks each endpoint's range as it
    counts it; the graph keeps none of them.  The same deduplication
    and payload semantics as {!make}.  [label_codes] and [values] are
    adopted.
    @raise Invalid_argument on out-of-range endpoints or if
    [label_codes] is empty. *)

val of_csr :
  ?values:Payloads.t ->
  pool:Label.Pool.t ->
  label_codes:Int_vec.t ->
  children:Int_vec.t * Int_vec.t ->
  parents:Int_vec.t * Int_vec.t ->
  unit ->
  t
(** [of_csr ~pool ~label_codes ~children:(coff, carr)
    ~parents:(poff, parr) ()] assembles a graph directly from prebuilt
    CSR sections, adopting the vectors without copying — this is the
    O(1) open path for {!Container}-mapped graphs and the exit of the
    streaming builder.  Both directions must already be sorted,
    deduplicated layouts of the same edge set; only shape (lengths and
    edge counts) is validated here.
    @raise Invalid_argument on shape mismatch or zero nodes. *)

val of_children :
  ?values:Payloads.t ->
  pool:Label.Pool.t ->
  label_codes:Int_vec.t ->
  Int_vec.t * Int_vec.t ->
  t
(** [of_children ~pool ~label_codes (off, arr)] adopts a child CSR
    whose runs are sorted strictly increasing, with every id below the
    node count, and derives the parents by counting sort
    ({!Adjacency.of_children}): the compact index body's decoder,
    which checks those properties as it reads the runs.
    @raise Invalid_argument if [off] does not have one more entry
    than [label_codes], or on zero nodes. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [u -> v].  No-op if the edge is
    already present. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge g u v] deletes the edge [u -> v].
    @raise Invalid_argument if the edge is not present. *)

val graft : t -> t -> t * int
(** [graft g h] builds a new graph consisting of [g], a disjoint copy
    of [h] (minus [h]'s root), grafted under [g]'s root: every child of
    [h]'s root becomes a child of [g]'s root.  Labels of [h] are
    re-interned into [g]'s pool (a fresh copy of it).  Returns the new
    graph and the id offset added to [h]'s node ids (node [i > 0] of
    [h] becomes [i - 1 + offset]).  This implements inserting "a new
    file into the database" (Section 5.1). *)

val copy : t -> t
(** Deep copy; mutations on the copy do not affect the original. *)

(** {1 Statistics} *)

type stats = {
  nodes : int;
  edges : int;
  labels : int;
  max_out_degree : int;
  max_in_degree : int;
  max_depth : int;  (** longest shortest-path distance from the root *)
  unreachable : int;  (** nodes not reachable from the root *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
