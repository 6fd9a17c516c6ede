(** Descriptive statistics of an index graph, for tooling and reports
    (the CLI's [build] command and the examples print these). *)

type t = {
  n_nodes : int;
  n_edges : int;
  n_data_nodes : int;
  compression : float;  (** data nodes per index node *)
  largest_extent : int;
  singleton_extents : int;
  k_histogram : (int * int) list;
      (** local similarity (-1 for infinite) -> number of index nodes,
          ascending *)
  label_rows : (string * int * int) list;
      (** label, index nodes, data nodes; descending by index nodes *)
}

val compute : Index_graph.t -> t
val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report ([label_rows] capped at 12). *)

(** {1 Generation-gated recomputation}

    A [source] memoizes {!compute} against the index's
    {!Index_graph.generation} counter: {!get} returns the cached
    record (physically the same value) until a mutation bumps the
    counter, then recomputes once.  Callers polling statistics (the
    server's [Stats] request) never pay a full sweep for an unchanged
    index and can never observe stale numbers after an update.
    Thread-safe: [get] may be called from any domain. *)

type source

val source : Index_graph.t -> source
(** Lazy: no sweep happens until the first {!get}. *)

val get : source -> t
val recomputes : source -> int
(** Number of sweeps performed so far; tests assert the gating. *)
