(** Per-index statistics catalog behind the planner's estimates.

    One catalog is bound to one {!Index_graph.t} and derives, in a
    single sweep over the live index nodes, everything the cost model
    prices: per-label index-node counts and extent populations (label
    selectivity), the per-label local-similarity coverage profile
    (how much of a label's data sits under nodes refined to at least
    [k] — the "under-refined D(k) class" signal), index fanout, and
    the global k histogram.

    Refresh is {e generation-gated}: {!refresh} compares the index's
    {!Index_graph.generation} counter against the one recorded at the
    last sweep and does nothing when they match, so consulting the
    catalog on every query never recomputes statistics and the stats
    can never be stale after an update (the next refresh sees the
    bumped counter).  All consultation functions are O(1) array reads
    and allocation-free; only {!refresh} after a mutation allocates.

    The catalog also records externally-observed {!Validation_cache}
    traffic ({!observe_cache}), from which the cost model discounts
    validation work for warm workloads. *)

open Dkindex_graph
open Dkindex_core

type t

val k_cap : int
(** Coverage profiles saturate at this similarity: a node with
    [k >= k_cap] (including 1-index nodes, [k = k_infinite]) counts as
    covering every query length the profile can ask about. *)

val create : Index_graph.t -> t
(** Bind a catalog to an index and run the first sweep. *)

val refresh : t -> unit
(** Re-sweep if (and only if) the index generation moved. *)

val refreshes : t -> int
(** Number of sweeps performed so far (1 after {!create}); tests use
    this to assert the generation gating. *)

val generation : t -> int
(** Index generation at the last sweep. *)

(** {1 Global statistics} *)

val n_inodes : t -> int
val n_iedges : t -> int
val n_data_nodes : t -> int
val n_data_edges : t -> int

val index_fanout : t -> float
(** Mean out-degree of live index nodes (0 on an empty index). *)

val data_fanout : t -> float

val k_histogram : t -> (int * int) list
(** Capped local similarity ([k_cap] stands for anything at or above
    it, including infinite) -> live index node count, ascending. *)

(** {1 Per-label statistics}

    All take an interned label. *)

val label_inodes : t -> Label.t -> int
(** Live index nodes carrying the label. *)

val label_fanout : t -> Label.t -> float
(** Mean index out-degree of the label's nodes ({!index_fanout} when
    the label has no swept row).  Hub labels sit far above the global
    mean, which is what makes a coarse summary expensive to walk. *)

val label_extent : t -> Label.t -> int
(** Data nodes under the label (extents partition the data nodes, so
    this is also the label's data population). *)

val label_max_extent : t -> Label.t -> int

val covered_extent : t -> Label.t -> int -> int
(** [covered_extent t l m]: data population of this label's index
    nodes with [min k k_cap >= min m k_cap] — the nodes certain for a
    query of [m + 1] labels. *)

val uncovered_extent : t -> Label.t -> int -> int
(** [label_extent - covered_extent]: data nodes that would need
    validation if every node of the label matched a query of [m + 1]
    labels. *)

(** {1 Validation-cache observation} *)

val observe_cache : t -> hits:int -> misses:int -> unit
(** Record cumulative hit/miss counters from a {!Validation_cache}
    serving this index (latest observation wins). *)

val cache_hit_rate : t -> float
(** Hits over total observed probes; 0 before any observation. *)
