(** The two access paths of a query — scanning the served index and
    walking the raw data graph — priced, and run in a fixed order.

    A planner holds at most one index graph over one data graph (any
    summary speaking {!Index_graph}; dkserve registers its D(k)).  For
    a parsed query it emits the valid plans ({!plans}) — the index scan
    priced from the index's {!Stats_catalog}, then the raw-graph
    evaluation — and executes them down a fallback chain
    ({!eval_planned}): the scan first, and the raw plan, always last
    and always executable, if the scan raises.

    {b The estimates choose nothing.}  The plans are not sorted by
    cost: with an index registered, {!plans} is always [[scan; raw]],
    the scan always runs, and the raw walk runs only after the scan
    raises.  The estimates feed EXPLAIN ({!explain}), the plan line of
    a served [Planned_result], and dkbench's
    [planner.est_over_actual_visits], nothing else.  Every plan's
    executor is exact (the index scan validates under-refined extents
    through {!Query_eval}, the raw path is exact by construction), so
    answers never depend on them.  Comparing summaries against each
    other is an experiment, not a runtime choice: see
    [bench/experiments.ml].

    The catalog refreshes lazily off {!Index_graph.generation}, so a
    planner owned by a serving loop stays correct across updates
    without ever recomputing statistics for an unchanged index.  No
    estimate depends on a validation cache: the cache is an argument
    of execution ({!execute}, {!eval_planned}), so one planner serves
    cached and uncached reads alike. *)

open Dkindex_graph
open Dkindex_core
open Dkindex_pathexpr

type t

val create : Data_graph.t -> t
(** A planner over the data graph with no index yet: only the raw
    access path is available until {!register} is called. *)

val register : t -> name:string -> Index_graph.t -> unit
(** Set the planner's one index, named [name] in plans, and sweep its
    {!Stats_catalog}.  @raise Invalid_argument if the planner already
    holds an index, the name is ["raw"], or the index summarizes a
    different data graph. *)

val index : t -> Index_graph.t option
(** The registered index, if any. *)

val catalog : t -> Stats_catalog.t option
(** The registered index's catalog, refreshed to the index's current
    generation. *)

val fallbacks : t -> int
(** Cumulative number of times {!eval_planned} had to skip a failing
    plan and fall through the chain. *)

(** {1 Planning} *)

val plans : t -> Path_ast.t -> Plan.t list
(** The valid access paths for the query, priced: [[scan; raw]], or
    [[raw]] when the planner holds no index or the query names a label
    the data graph never saw.  The last plan is always {!Plan.Raw}. *)

val choose : t -> Path_ast.t -> Plan.t
(** The first of {!plans}: the scan whenever an index is registered
    and the query's labels exist. *)

val choose_path : t -> Label.t array -> Plan.t
(** [choose] for a pre-interned label path: catalog refresh check plus
    memoized plan lookup, without expression conversion or
    execution. *)

val explain : t -> Path_ast.t -> string list
(** Human-readable plans: one header line, then one numbered line per
    plan ({!Plan.describe}), the chosen plan marked. *)

(** {1 Execution} *)

val execute : ?cache:Validation_cache.t -> t -> Plan.t -> Path_ast.t -> Query_eval.result
(** Run one specific plan; an index scan validates through [cache]
    when one is given.  @raise Invalid_argument if the plan scans an
    index the planner does not hold. *)

val eval_planned : ?cache:Validation_cache.t -> t -> Path_ast.t -> Plan.t * Query_eval.result
(** Plan, then execute down the fallback chain; returns the plan that
    actually produced the answer. *)
