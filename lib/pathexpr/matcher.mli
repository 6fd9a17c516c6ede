(** Path expression evaluation directly on the data graph.

    A node is in the result when some node path ending at it matches
    the expression; paths may start anywhere (the paper's
    partial-match semantics).  Every function charges the nodes it
    touches to the supplied {!Cost.t}. *)

open Dkindex_graph

val eval_nfa : Data_graph.t -> Nfa.t -> cost:Cost.t -> int list
(** Full regular path expression evaluation via product reachability of
    (node, NFA-state set); returns matching node ids, sorted. *)

val eval_label_path : Data_graph.t -> Label.t array -> cost:Cost.t -> int list
(** Specialized evaluation for plain label sequences, the workload of
    the paper's experiments; equivalent to {!eval_nfa} on the same
    query but cheaper.  Returns matching node ids, sorted. *)

val make_path_validator :
  ?memo:(int * int, bool) Hashtbl.t ->
  Data_graph.t ->
  Label.t array ->
  cost:Cost.t ->
  int ->
  bool
(** [make_path_validator g path ~cost] returns a predicate deciding
    whether the label path matches a given node, by walking parent
    edges backwards.  Memoized across calls: validating many candidate
    nodes of one query shares work, as an implementation would.  This
    is the paper's validation step; every (node, position) pair
    explored counts as one data-node visit.

    [memo] supplies an external [(node, position) -> bool] table to use
    instead of a fresh private one, letting a cache keep validation
    work alive across queries ({!Validation_cache}).  Entries are only
    valid for a fixed data graph and the same [path]. *)

val node_matches_nfa : Data_graph.t -> Nfa.t -> node:int -> cost:Cost.t -> bool
(** General (regex) validation of a single node: computes backward
    state sets over the node's ancestor closure.  Used for queries that
    are not plain label paths. *)
