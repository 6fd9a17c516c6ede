(** NASA-like synthetic dataset (substitution for the IBM generator +
    nasa.dtd file used in the paper's Section 6).

    The paper picked the NASA astronomical-metadata DTD because it is
    "broader, deeper and less regular" than XMark "with more
    references", and kept 8 of its 20 reference kinds.  This generator
    follows the published nasa.dtd element hierarchy (dataset / altname
    / reference / source (journal | book | other) / history / revision
    / tableHead / fields / definitions ...), is roughly twice as deep
    as XMark thanks to recursive [para] / [footnote] content, draws
    every optional element independently, and wires exactly 8 reference
    kinds:

    + [dataset\@related] -> dataset
    + [keyword\@definition] -> definition
    + [field\@definition] -> definition
    + [tableLink\@field] -> field
    + [revision\@reference] -> reference
    + [footnote\@dataset] -> dataset
    + [para\@field] -> field
    + [source\@journal] -> journal

    [scale] is the number of datasets; a scale of 100 yields roughly
    15k nodes. *)

val doc : ?seed:int -> scale:int -> unit -> Dkindex_xml.Xml_ast.doc
val config : Dkindex_xml.Xml_to_graph.config
val graph : ?seed:int -> scale:int -> unit -> Dkindex_graph.Data_graph.t
(** {!events} fed straight into the graph builder, as {!Xmark.graph}. *)

val events : ?seed:int -> scale:int -> (Dkindex_xml.Xml_sax.event -> unit) -> unit
(** Emit the document as SAX events ([doc] is these events collected);
    peak memory is one dataset subtree.  See {!Xmark.events}. *)

val stream :
  ?seed:int ->
  ?mem_budget:int ->
  ?tmp_dir:string ->
  scale:int ->
  path:string ->
  unit ->
  int * string list
(** Generate straight into a {!Dkindex_graph.Container} file,
    byte-identical to saving [graph].  See {!Xmark.stream}. *)

val ref_pairs : (string * string) list
(** The 8 ID/IDREF label pairs of the synthetic NASA schema (paper,
    Section 6.2). *)
