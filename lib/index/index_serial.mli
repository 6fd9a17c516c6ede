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

    The embedded graph lists its edges in {!Dkindex_graph.Serial}'s
    canonical order (CSR order, overflow additions merged in,
    tombstones skipped), so an index serializes to the same bytes
    before and after its data graph is flattened or reloaded.

    The [counts] line is validated against the decoded body: a
    snapshot whose declared node/edge/class counts disagree with what
    its graph and partition actually contain is rejected.  Version-1
    documents (no [counts] line) are still read.

    Both directions are single passes, O(bytes of the document):
    {!encode} writes the graph and the partition once, as digits
    straight into one buffer, with a gap left in front for the header
    (whose [graph <len>] is known only at the end); {!of_string} walks
    a cursor over the text and decodes the embedded graph in place. *)

type slice = { bytes : Bytes.t; off : int; len : int }
(** The document is [bytes] from [off] for [len] bytes. *)

val front_room : int
(** 64: {!encode}'s slice has [off >= front_room], room for a
    caller's header line in front (a checkpoint's CRC line). *)

val encode : Index_graph.t -> slice
(** The document, in a buffer of its own that nothing else writes. *)

val to_string : Index_graph.t -> string
(** A copy of {!encode}'s slice. *)

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
    data CSR and the index child CSR in place and adopts both
    ({!Index_graph.of_partition_with_edges} derives the index parents),
    so the cost is O(data nodes + index edges), never O(data edges). *)

val save_container : string -> Index_graph.t -> unit
(** Atomic (container tmp + rename). *)

val load_container : ?verify:bool -> string -> Index_graph.t
(** @raise Dkindex_graph.Container.Error on validation failure
    ([~verify:true] additionally streams every section CRC). *)
