(** Persistence for index graphs: a text document, a compact binary
    body and a mappable container.

    Each embeds the underlying data graph, the partition (class of
    every data node, dense ids) and each class's local similarity and
    requirement, so a loaded index is immediately queryable and
    updatable.  The text document is the export and golden format
    ({!to_string}, {!save}, the CLI's [--save]); the compact body is
    what dkserve persists and ships (checkpoints, [--snapshot] files,
    replica bootstraps); {!decode} and {!load} read either, told apart
    by the magic.

    Text format (version 2):
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

(** {1 The compact body}

    The same content as the text document, in about a third of the
    bytes at XMark scale 2000 (1.63 MB against 4.63 MB).  Every number
    is an unsigned LEB128 varint (seven bits a byte, low group first:
    what {!Dkindex_graph.Cursor.varint} reads); a string is a varint
    length and its bytes.
    {v
    "dkindex-compact 1\n"                      the magic, 18 bytes
    n_nodes n_edges n_classes n_labels n_values
    n_labels x (name)                          the label pool, in code order
    n_nodes  x (code)                          each node's label code
    n_nodes  x (degree, degree x gap)          each node's children
    n_values x (gap, payload)                  payloads, by increasing node
    n_nodes  x (class)                         dense first-touch class ids
    n_classes x (k', req')                     per class, in id order
    v}

    A node's children are written in {!Dkindex_graph.Serial}'s
    canonical order, the text format's: the CSR run with the overflow
    additions merged in and the tombstones skipped, so a graph with
    pending updates and its flattened copy encode to the same bytes.
    A run is sorted strictly increasing, so it is its first id, then
    each following id's gap to the one before, less one; payload node
    ids are coded the same way.  [k'] and [req'] are [0] for infinity
    and [k + 1] otherwise.

    The decoder reads through one bounded {!Dkindex_graph.Cursor.t}.
    It refuses a body whose declared counts the remaining bytes cannot
    hold (each node takes at least three bytes) before it allocates
    anything; it checks every label code, child, payload node and class
    against its range and each run's length against the declared edge
    count, and requires the body to end exactly where the last class
    does.  The body has no checksum of its own: a checkpoint's header
    line carries its CRC. *)

val compact_magic : string
(** ["dkindex-compact 1\n"]. *)

val encode_compact : Index_graph.t -> slice
(** The compact body, in a buffer of its own, with {!front_room} bytes
    free in front of it like {!encode}'s. *)

val decode : string -> Index_graph.t
(** A compact body (it starts with {!compact_magic}) or a text
    document (anything else), loaded.
    @raise Failure on malformed input of either kind. *)

val save : string -> Index_graph.t -> unit
(** The text document.  Atomic: writes [path ^ ".tmp"], then renames over [path].  Nothing
    is fsynced, so the file may not survive a power loss; a caller that
    acknowledges the save needs a durable write instead. *)

val load : string -> Index_graph.t
(** A file {!save}, [dkindex-server --snapshot] or a text export wrote:
    {!decode} of its contents. *)

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
