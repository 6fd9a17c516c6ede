(** Cross-query validation cache.

    Validation dominates query cost on an index whose similarities do
    not cover the workload: every candidate extent member is checked
    against the data graph, and consecutive queries over the same hot
    labels redo the same parent-chain walks.  This module interns the
    per-query artifacts — compiled automata, transition tables, and the
    positive/negative memo tables behind
    {!Matcher.make_path_validator} and {!Matcher.node_matches_nfa} —
    and keeps them alive across queries against one index.

    {b Invalidation contract.}  Every cached answer is valid only for a
    fixed data graph and partition.  The cache snapshots
    {!Index_graph.generation} and compares it on every lookup: any
    mutation — {!Index_graph.split} (promotion, A(k) propagation),
    {!Index_graph.set_k}/{!Index_graph.set_req} (demotion, broadcast),
    index edge updates, and the explicit {!Index_graph.touch} calls the
    update drivers ({!Dk_update}, {!Dkindex_baselines.Ak_update}) issue
    on data-graph edge changes — bumps the generation, so the next
    lookup drops every memo before it can serve a stale answer.  Compiled automata survive
    invalidation (they depend only on the expression and the label
    pool); per-node answers do not.

    {b Bounding.}  Memoized answers are capped at [max_entries] across
    all tables.  When a lookup finds the cache over its cap, a clock
    (second-chance) sweep runs over the interned tables: tables touched
    since the last sweep survive with their bit cleared, the rest have
    their answers dropped, until the total is back under the cap.
    Compiled automata and the tables themselves are kept (they are
    small and expensive to rebuild); only the per-node answers — the
    part that grows with churn — are evicted.

    A cache is single-domain state: {!Query_eval.eval_batch} creates
    one per batch, and a concurrent reader needs one of its own. *)

open Dkindex_graph
open Dkindex_pathexpr

type t

val create : ?max_entries:int -> Index_graph.t -> t
(** A fresh cache bound to one index graph (and its data graph).
    [max_entries] (default [2^20]) caps the total memoized answers.
    @raise Invalid_argument if [max_entries < 1]. *)

val path_validator : t -> Label.t array -> cost:Cost.t -> int -> bool
(** Like {!Matcher.make_path_validator}, but the [(node, position)]
    memo table is shared by every query asking the same label path
    until the index mutates. *)

val nfa : t -> Path_ast.t -> Nfa.t * Nfa.table
(** Compiled automaton and dense transition table for an expression,
    compiled once per cache lifetime. *)

val nfa_validator : t -> Path_ast.t -> cost:Cost.t -> int -> bool
(** Like {!Matcher.node_matches_nfa} partially applied to the data
    graph, with a per-expression node memo kept across queries. *)

val invalidate : t -> unit
(** Drop all memoized answers now (keeps compiled automata).  Normally
    unnecessary — lookups self-invalidate via the generation check —
    but available to callers that mutate state the index graph cannot
    observe. *)

val stats : t -> int * int
(** [(hits, misses)] over intern lookups, for tests and diagnostics. *)

val entry_count : t -> int
(** Total memoized answers currently held across all tables. *)

val evictions : t -> int
(** Cumulative answers dropped by cap enforcement (not by
    generation-based invalidation). *)
