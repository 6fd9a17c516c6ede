(** The two access paths of a query and their priced plans.

    A plan is one way to answer a parsed path expression: scan the
    planner's one registered index (validating under-refined extents),
    or evaluate directly on the data graph.  The planner ({!Planner})
    prices both from the {!Stats_catalog}, but the prices order
    nothing: the scan comes first whenever an index is registered, and
    the raw-graph plan is always present, always executable and always
    last, closing the fallback chain.  The estimates are reported
    (EXPLAIN, [Planned_result]) and measured against actual visits;
    they never pick a plan. *)

type access =
  | Scan of string  (** the registered index, validating as needed *)
  | Raw  (** direct evaluation on the data graph — always sound *)

type t = {
  access : access;
  est_index_visits : float;  (** traversal cost over the index graph *)
  est_candidates : float;  (** data nodes expected to need validation *)
  est_data_visits : float;  (** validation cost after the cache discount *)
  est_total : float;  (** index plus data visits *)
  certain : bool;  (** no validation expected (soundness covers the query) *)
}

val access_name : access -> string
(** ["scan(dk)"], ["raw"]. *)

val describe : t -> string
(** One line: access path, estimates, certainty — the EXPLAIN row and
    the [Planned_result] plan tag. *)
