(** The deterministic serving dataset.

    dkserve's correctness story leans on the server and the load
    generator being able to reconstruct {e the same} index
    independently: the loadgen's check mode replays the server's
    workload against a local in-process index and requires bit-for-bit
    equal answers.  That only works if both sides build from one
    pinned recipe — this module is that recipe (XMark graph, fixed
    requirements, seeded query workload and ID/IDREF update edges, all
    functions of [(seed, scale)] alone). *)

open Dkindex_graph
open Dkindex_core

type t = {
  graph : Data_graph.t;
  index : Index_graph.t;
  queries : string list list;  (** label paths, each non-empty on [graph] *)
  update_edges : (int * int) list;
      (** random ID/IDREF additions (paper, Section 6.2) *)
}

val reqs : (string * int) list
(** The pinned D(k) requirements (same as the benchmark harness). *)

val build : Data_graph.t -> Index_graph.t
(** The pinned index over a graph: [Dk_index.build] with {!reqs}. *)

val index : seed:int -> scale:int -> Index_graph.t
(** The pinned index alone, exactly as {!make} builds it: what a server
    serves, without the cost of the query and update workloads:
    {!build} over [Xmark.graph ~seed ~scale ()]. *)

val make : ?seed:int -> ?n_queries:int -> ?n_updates:int -> scale:int -> unit -> t
(** Defaults: [seed = 1], [n_queries = 100], [n_updates = 200]. *)
