(** k-bisimulation partition refinement (Definition 2).

    Round [k] refines the [k-1] partition by splitting every class on
    the key {i (own class, set of parent classes)}; the result is
    exactly the [k]-bisimilarity partition.  This computes the same
    fixpoint as the split-by-[Succ] loop of the A(k) / D(k)
    construction algorithms, in O(m) time per round. *)

open Dkindex_graph

type partition = {
  cls : int array;  (** data node -> class id, dense in [0 .. n) *)
  n_classes : int;
  parent_class : int array;
      (** class id -> the class it was split from in the previous round
          (the identity for the initial label partition) *)
}

val label_partition : Data_graph.t -> partition
(** 0-bisimilarity: one class per distinct label.  Class ids follow
    first occurrence in node order, so the root's class is 0. *)

val class_labels : Data_graph.t -> partition -> Label.t array
(** Label carried by each class. *)

type mode = [ `Auto | `In_ram | `External ]
(** How a refinement round runs.  [`In_ram] is the hash-interning
    pass below; [`External] is a sort/scan pass
    that writes each node's exact key record to an external merge
    sorter and groups equal keys in one merged stream — O(n) words of
    RAM regardless of edge count, with the O(m) key data in spilled
    temp-file runs (after Hellings et al., {i I/O efficient
    bisimulation partitioning}).  [`Auto] (the default everywhere)
    picks [`External] at ≥ 2{^24} edges.  Both paths assign classes in
    global first-occurrence order, so results — ids included — are
    bit-for-bit identical whichever runs. *)

val refine :
  ?mode:mode ->
  ?into:int array ->
  Data_graph.t ->
  partition ->
  eligible:(int -> bool) ->
  partition * bool
(** One refinement round splitting only classes for which [eligible]
    holds; returns the new partition and whether anything split.
    [parent_class] of the result maps into the argument partition.

    [into] is a buffer the in-RAM pass may write the result's [cls]
    into instead of allocating one: it is used, and overwritten, when
    it holds one slot per data node and is not the argument's [cls].
    A caller running rounds passes the [cls] of the partition two
    rounds back, so the rounds alternate between two arrays.

    Keys are hashed into 64-bit order-insensitive signatures (no
    per-node lists or sorting; O(degree) per node with every signature
    hit verified against a representative node, so hash collisions
    cannot merge distinct keys). *)

val refine_by_children : ?mode:mode -> Data_graph.t -> partition -> partition * bool
(** One backward refinement round: splits every class on the key
    {i (own class, set of child classes)}.  The mirror of {!refine}
    used by the F&B-index construction; same determinism guarantees. *)

val k_partition : ?mode:mode -> Data_graph.t -> k:int -> partition
(** The A(k) partition: [k] full rounds from the label partition. *)

val stable_partition : ?mode:mode -> Data_graph.t -> partition * int
(** The full bisimulation (1-index) partition: refine to fixpoint.
    Also returns the number of rounds taken (the graph's bisimulation
    depth). *)
