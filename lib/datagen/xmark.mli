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
    100 yields a graph of roughly 10k nodes.

    One generator writes every route through a small typed sink: open
    an element by a label interned once per output (label codes come
    out in first-use order), add a text payload, define an ID or add
    an IDREF as a (kind, number) pair.  {!graph} and {!stream} feed
    those calls straight into the graph builders, resolving IDREFs
    from per-kind int arrays; {!events} (and so {!doc}) renders the
    same calls as SAX events, ID values spelled [item7], [person3] and
    so on.  Nothing ties the routes together by construction: the
    pinned digests in [test/test_codec.ml] fix the graph, and a qcheck
    property in [test/test_datagen.ml] holds the event, parsed-XML and
    stream routes to it over seeds and scales. *)

val doc : ?seed:int -> scale:int -> unit -> Dkindex_xml.Xml_ast.doc
(** {!events} collected into a tree. *)

val events : ?seed:int -> scale:int -> (Dkindex_xml.Xml_sax.event -> unit) -> unit
(** The document as SAX events in document order, the XML rendering
    of the generator's calls.  Peak memory is one top-level chunk (an
    item, a person, an auction), not the document.
    [Xml_to_graph.convert ~config] over these events gives {!graph}. *)

val stream :
  ?seed:int ->
  ?mem_budget:int ->
  ?tmp_dir:string ->
  scale:int ->
  path:string ->
  unit ->
  int
(** Generate straight into a {!Dkindex_graph.Container} file at [path]
    through a {!Dkindex_graph.Graph_stream}, without materializing the
    document or the graph.  Returns the number of IDREF edges.  The
    file is byte-identical to [Container.save_graph] of [graph] with
    the same seed and scale. *)

val config : Dkindex_xml.Xml_to_graph.config
(** ID/IDREF attribute mapping for XMark documents. *)

val graph : ?seed:int -> scale:int -> unit -> Dkindex_graph.Data_graph.t
(** The generator's calls straight into a {!Dkindex_graph.Builder}: no
    events, no document tree, no ID strings. *)

val ref_pairs : (string * string) list
(** The (source label, target label) ID/IDREF pairs of the schema, used
    by the update experiments: "we randomly choose a pair of ID/IDREF
    labels in the DTD file and one data node from each label group"
    (paper, Section 6.2). *)
