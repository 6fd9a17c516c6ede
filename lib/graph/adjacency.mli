(** A mutable directed adjacency over node ids [\[0, n)], stored in
    both directions: the one edge store behind {!Data_graph} and
    [Index_graph].

    Edges live in CSR (compressed sparse row) form: per direction one
    offsets vector and one neighbor vector ({!Int_vec}), each node's
    run sorted increasing.  Mutation goes through an overflow layer:
    per-node lists of added edges, and tombstones for deleted CSR
    edges (an int-keyed table plus per-node tombstone counts, so nodes
    whose runs hold no tombstone never probe it).  The layer is folded
    back into fresh CSR vectors once it outgrows [max 64 ((m + n) / 2)]
    entries, as of the last fold: a fold costs O(n + m), so updates
    stay amortized O(1) and reads stay flat loops almost all the time.

    The per-node overflow lists are allocated by the first addition
    and the tombstone counts by the first deletion, not at
    construction, so an adjacency that is never mutated (a mapped
    container, a read-only server's index) carries nothing beyond its
    CSR vectors.  The id space can grow ({!extend}): ids past the
    CSR live purely in the overflow layer until the next fold.  The
    CSR vectors may be adopted views of a memory-mapped file; they are
    never written, and the first fold moves the adjacency to fresh
    heap-side vectors.

    Ids are not range-checked, except by {!of_edges}: callers pass ids
    in [\[0, n)].  Ids
    must stay below [2{^31}] (tombstones pack an edge into one int).
    Reads never mutate, so any number of domains may read an
    adjacency nobody is mutating. *)

type t

(** {1 Construction} *)

val of_edges : ?what:string -> int -> (int array * int array * int) list -> t
(** [of_edges n segments] over ids [\[0, n)]: each segment
    [(src, dst, len)] holds the edges [src.(i) -> dst.(i)] for
    [i < len], and the segments are read in place, twice, by plain
    loops (no call per edge).  Duplicate edges are kept once;
    self-loops are allowed.
    @raise Invalid_argument ["<what>: edge (u, v) out of range"]
    (default [what]: ["Adjacency.of_edges"]) on an endpoint outside
    [\[0, n)], or if a segment's arrays are shorter than [len]. *)

val of_children : int -> Int_vec.t * Int_vec.t -> t
(** [of_children n (off, arr)] adopts a child CSR over [n] ids whose
    runs are sorted strictly increasing, and derives the parent CSR
    by counting sort.  Only the offsets' length is checked.
    @raise Invalid_argument unless [off] has [n + 1] entries. *)

val of_csr : children:Int_vec.t * Int_vec.t -> parents:Int_vec.t * Int_vec.t -> t
(** Adopt both directions as they are, in O(1): the open path of a
    mapped container.  Both must be sorted, deduplicated views of the
    same edge set; only their shapes are checked.
    @raise Invalid_argument on mismatched lengths or edge counts. *)

val copy : t -> t
(** A deep copy in fresh heap-side vectors; mutating either side never
    affects the other. *)

(** {1 Reads} *)

val n : t -> int
(** The id space. *)

val n_edges : t -> int
(** Live edges, exact. *)

val iter_children : t -> int -> (int -> unit) -> unit
(** The CSR run (tombstones skipped), then the overflow additions,
    newest first — or, after {!keep_sorted}, in increasing order.
    Allocation-free. *)

val iter_parents : t -> int -> (int -> unit) -> unit

val iter_children_sorted : t -> int -> (int -> unit) -> unit
(** {!iter_children} in increasing order, without materializing a
    list; allocates only when the node has overflow additions. *)

val exists_children : t -> int -> (int -> bool) -> bool
(** Short-circuiting existential over the children. *)

val exists_parents : t -> int -> (int -> bool) -> bool

val children : t -> int -> int list
(** Sorted, duplicate-free (allocates). *)

val parents : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int

val mem : t -> int -> int -> bool
(** [mem t u v]: whether the edge [u -> v] is live.  A binary search
    of the CSR run plus a scan of the overflow list. *)

val overflow : t -> int * int
(** [(additions, tombstones)] pending in the overflow layer. *)

val csr_children : t -> Int_vec.t * Int_vec.t
(** [(off, arr)]: node [u]'s children are [arr.(off.(u)) ..
    arr.(off.(u + 1) - 1)], sorted increasing.  Folds the overflow
    layer first.  The vectors are the adjacency's own storage: valid
    until the next mutation, never to be written. *)

val csr_parents : t -> Int_vec.t * Int_vec.t

(** {1 Mutation} *)

val keep_sorted : t -> unit
(** From now on keep each node's overflow additions sorted and read
    them merged into its CSR run, so every read ({!iter_children},
    {!iter_parents} and the [exists_] pair) comes out in increasing
    order: the order a fold leaves, whatever the overflow layer holds.
    Then the nodes and visit counts of a traversal do not depend on
    the order edges arrived in or on when the layer was last folded.
    An addition then costs a scan of the node's overflow list.  Sorts
    the lists present; idempotent. *)

val extend : t -> int -> unit
(** Grow the id space to at least the given size.  New ids start
    without edges. *)

val add : t -> int -> int -> unit
(** Insert [u -> v]; a no-op if it is live. *)

val remove : t -> int -> int -> bool
(** Delete [u -> v]; [false] (and no change) if it was absent. *)

val detach_all : t -> int -> unit
(** Delete every edge into or out of a node.  Tombstones its CSR runs
    wholesale and clears its overflow lists in one sweep, so only the
    neighbors' overflow lists are scanned. *)

val flatten : t -> unit
(** Fold any pending overflow, and any ids grown past the CSR, into
    fresh CSR vectors.  A no-op on the edge set. *)
