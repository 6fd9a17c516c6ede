(** Plain-text persistence for data graphs.

    Format (version 2):
    {v
    dkindex-graph 2
    nodes <n>
    <label name of node 0>
    ...
    edges <m>
    <src> <dst>
    ...
    values <count>
    <node> <payload, with '\n', '\r' and '%' written as %0A, %0D, %25>
    ...
    v}

    Edges are written in canonical order: by source, then by target,
    each source's targets straight from its CSR run with the overflow
    layer's additions merged in and its tombstones skipped — the order
    {!Data_graph.children} lists them in.  A graph mutated through the
    overflow layer and its flattened or reloaded copy therefore
    serialize to the same bytes.  Values follow in node order.

    Version 1 is the same without the [values] section; it is still
    read.  Both directions are single passes over flat buffers,
    O(bytes of the document): the writer emits the CSR runs and the
    payload arrays in order (no sort, no lookups) as digits straight
    into one {!Text_buf}, and the reader walks a cursor over the text
    (no line splitting) straight into the edge vectors and payload
    arrays {!Data_graph.of_edge_vecs} takes.  Value lines out of node
    order, or repeating a node, are accepted: the first line for a
    node wins, and re-encoding writes the payloads in node order. *)

val to_string : Data_graph.t -> string

val of_string : string -> Data_graph.t
(** @raise Failure on malformed input, [Invalid_argument] on an edge or
    value naming a node out of range. *)

val save : string -> Data_graph.t -> unit
val load : string -> Data_graph.t

(** {1 Building blocks of the index codec}

    {!Index_serial} embeds a graph document in its own; these let it
    write and read the embedding in place. *)

val encode : Text_buf.t -> Data_graph.t -> unit
(** Append [to_string g] to the buffer. *)

val size_hint : Data_graph.t -> int
(** A bound on the document size, above it by the digits node ids
    fall short of [n_nodes]'s, and below it only when payloads need
    escaping. *)

val of_substring : string -> pos:int -> len:int -> Data_graph.t
(** [of_string (String.sub s pos len)] without the copy; whatever
    follows the graph inside the region is ignored, as [of_string]
    ignores it. *)

val int_of_sub : string -> int -> int -> int option
(** [int_of_sub s i j] is [int_of_string_opt (String.sub s i (j - i))],
    without the copy for plain decimals. *)
