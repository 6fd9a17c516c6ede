(** XMark-like synthetic dataset (substitution for the XMark benchmark
    generator used in the paper's Section 6).

    Generates the XMark auction-site document: a regular, shallow
    element hierarchy (site / regions / items / categories / people /
    open and closed auctions) with the benchmark's ID/IDREF reference
    topology (items reference categories, auctions reference items and
    persons, persons watch auctions, the category graph links
    categories).  See DESIGN.md, "Substitutions".

    [scale] is the number of items; the other populations are derived
    with XMark-like ratios (persons = scale, open auctions = 3/4 scale,
    closed auctions = 1/2 scale, categories = scale / 10).  A scale of
    100 yields a graph of roughly 10k nodes. *)

val doc : ?seed:int -> scale:int -> unit -> Dkindex_xml.Xml_ast.doc

val events : ?seed:int -> scale:int -> (Dkindex_xml.Xml_sax.event -> unit) -> unit
(** The generator's primitive: emit the document as SAX events in
    document order.  [doc] is exactly these events collected into a
    tree, so both APIs always agree for a given seed and scale.  Peak
    memory is one top-level chunk (an item, a person, an auction), not
    the document. *)

val stream :
  ?seed:int ->
  ?mem_budget:int ->
  ?tmp_dir:string ->
  scale:int ->
  path:string ->
  unit ->
  int * string list
(** Generate straight into a {!Dkindex_graph.Container} file at [path]
    without materializing the document or the graph (events through
    {!Dkindex_xml.Xml_to_graph.stream_to_container}).  Returns
    [(n_reference_edges, unresolved_refs)].  The file is byte-identical
    to [Container.save_graph] of [graph] with the same seed and
    scale. *)

val config : Dkindex_xml.Xml_to_graph.config
(** ID/IDREF attribute mapping for XMark documents. *)

val graph : ?seed:int -> scale:int -> unit -> Dkindex_graph.Data_graph.t
(** [graph ~scale] feeds {!events} straight into the graph builder
    with {!config}; no document tree is built. *)

val ref_pairs : (string * string) list
(** The (source label, target label) ID/IDREF pairs of the schema, used
    by the update experiments: "we randomly choose a pair of ID/IDREF
    labels in the DTD file and one data node from each label group"
    (paper, Section 6.2). *)
