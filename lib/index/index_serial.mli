(** Plain-text persistence for index graphs.

    The serialization embeds the underlying data graph, the partition
    (class of every data node, dense ids) and each class's local
    similarity and requirement, so a loaded index is immediately
    queryable and updatable.

    Format (version 2):
    {v
    dkindex-index 2
    counts <n_nodes> <n_edges> <n_classes>
    graph <byte length of the embedded Serial graph text>
    <embedded graph>
    cls
    <class of data node 0>
    ...
    classes <m>
    <k or -1 for infinite> <req or -1>
    ...
    v}

    The [counts] line is validated against the decoded body: a
    snapshot whose declared node/edge/class counts disagree with what
    its graph and partition actually contain is rejected.  Version-1
    documents (no [counts] line) are still read. *)

val to_string : Index_graph.t -> string
val of_string : string -> Index_graph.t
(** @raise Failure on malformed input. *)

val save : string -> Index_graph.t -> unit
(** Atomic: writes [path ^ ".tmp"], then renames over [path].  Nothing
    is fsynced, so the file may not survive a power loss; a caller that
    acknowledges the save needs a durable write instead. *)

val load : string -> Index_graph.t

(** {1 Container persistence}

    The binary counterpart of the text format: a
    {!Dkindex_graph.Container} of kind [Index] holding the embedded
    data graph as mappable sections plus the partition (dense
    first-touch class ids — the same numbering {!to_string} uses),
    per-class k/req, and the index adjacency itself.  Loading maps the
    data CSR in place and installs the stored index CSR directly
    ({!Index_graph.of_partition_with_edges}), so the cost is
    O(data nodes + index edges), never O(data edges). *)

val save_container : string -> Index_graph.t -> unit
(** Atomic (container tmp + rename). *)

val load_container : ?verify:bool -> string -> Index_graph.t
(** @raise Dkindex_graph.Container.Error on validation failure
    ([~verify:true] additionally streams every section CRC). *)
