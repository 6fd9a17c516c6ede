(** Path query evaluation on an index graph, with validation.

    Evaluation follows the paper's model: traverse the index graph
    (each index node touched costs one visit); a matched index node
    whose local similarity covers the query length contributes its
    whole extent for free (the D(k)-index soundness property), while a
    matched node with a smaller similarity is only {e approximate} and
    its extent members must be validated against the data graph — each
    data node touched during validation costs one visit
    (Section 6.1).

    All traversal state lives in flat arrays sized by
    {!Index_graph.max_id}: int-array frontiers with stamp-array dedup
    for label paths, and one [nodes x NFA-states] distance plane for
    regular expressions — no per-query hashtables on the hot path. *)

open Dkindex_graph
open Dkindex_pathexpr

type result = {
  nodes : int list;  (** matching data nodes, sorted *)
  cost : Cost.t;
  n_candidates : int;  (** extent members that needed validation *)
  n_certain : int;  (** matched index nodes answered without validation *)
}

val eval_path :
  ?strategy:[ `Forward | `Backward | `Auto ] ->
  ?cache:Validation_cache.t ->
  Index_graph.t ->
  Label.t array ->
  result
(** Evaluate a plain label path (the experiment workload).  A matched
    index node with [m] labels is certain when [k >= m - 1]
    (property 3 of Section 4.1).

    [strategy] selects the traversal direction over the index graph:
    - [`Forward] (default, the paper's evaluation): start from every
      index node carrying the first label and walk children;
    - [`Backward]: start from the target label's index nodes and search
      parents for a matching prefix (memoized) — far cheaper when the
      target label is rarer than the first label;
    - [`Auto]: pick by comparing the two labels' index populations.

    All strategies return identical results and identical
    validation behavior; only the index-visit cost differs.

    [cache] shares validation memos across queries (see
    {!Validation_cache}); result nodes are unaffected, only the
    validation cost of repeated queries drops. *)

val eval_path_strings : Index_graph.t -> string list -> result
(** Convenience wrapper interning label names; unknown labels yield an
    empty result. *)

val eval_expr : ?cache:Validation_cache.t -> Index_graph.t -> Path_ast.t -> result
(** General regular path expressions: the index traversal tracks the
    longest matching path length into each matched index node (capped
    just above the index's largest similarity) and validates nodes the
    similarity does not cover.  [cache] additionally reuses the
    compiled automaton and transition table across queries. *)

val eval_pattern : ?validate:bool -> Index_graph.t -> Tree_pattern.t -> result
(** Branching path queries (tree patterns).  The pattern is evaluated
    over the index graph; with [validate] (the default) every candidate
    extent member is then checked against the data graph (predicates
    downward, the main path upward), so the result is exact on {e any}
    index.  Pass [~validate:false] only for a covering index
    ({!Dkindex_baselines.Fb_index.build}), where the index answer is
    exact by construction — on other indexes that would return a
    superset. *)

val eval_batch :
  ?domains:int ->
  ?strategy:[ `Forward | `Backward | `Auto ] ->
  ?cache:bool ->
  Index_graph.t ->
  Label.t array list ->
  result array
(** Serve a workload of label-path queries (as produced by
    {!Query_gen}), fanned out over [domains] worker domains
    (default 1).

    {b Determinism.}  Queries are assigned round-robin (query [i] to
    domain [i mod domains]) and results land in an array slot per
    query, so [nodes], [n_candidates] and [n_certain] of every result
    are bit-for-bit identical for any domain count.  With [cache:true]
    (the default) each domain keeps its own {!Validation_cache}, so a
    query's [cost] can drop when a same-domain predecessor warmed the
    memo; with [cache:false] the per-query costs are also bit-for-bit
    independent of [domains].

    Before spawning, {!Index_graph.prepare_serving} freezes all
    lazily-materialized state, making the fan-out strictly read-only.
    The index must not be mutated concurrently. *)

val merge_costs : result array -> Cost.t
(** Total cost of a batch, accumulated in query order (deterministic
    regardless of how the batch was scheduled). *)
