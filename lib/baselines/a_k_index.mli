(** The A(k)-index of Kaushik et al. (ICDE 2002): equivalence classes
    of k-bisimilarity, for a uniform k.  Sound for path expressions of
    length at most k; longer queries need validation.  A special case
    of the D(k)-index with every local similarity equal to [k]. *)

val build : ?mode:Kbisim.mode -> Dkindex_graph.Data_graph.t -> k:int -> Index_graph.t
