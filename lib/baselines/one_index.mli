(** The 1-index of Milo and Suciu (ICDT 1999): full bisimulation
    equivalence classes.  Safe and sound for every path expression, so
    its nodes carry {!Index_graph.k_infinite} local similarity.  The
    limit of the A(k)-index as k grows. *)

val build : ?mode:Kbisim.mode -> Dkindex_graph.Data_graph.t -> Index_graph.t

val bisimulation_depth : Dkindex_graph.Data_graph.t -> int
(** Number of refinement rounds until the partition stabilizes. *)
