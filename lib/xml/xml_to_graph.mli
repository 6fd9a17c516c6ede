(** Loading an XML document into the paper's data-graph model.

    Mapping (Section 3 of the paper):
    - a single root node labeled [ROOT];
    - every element becomes a node labeled with its tag, a child of its
      containing element (tree edges);
    - every text node becomes a [VALUE]-labeled leaf;
    - every ordinary attribute becomes a node labeled with the
      attribute name, holding a [VALUE] leaf;
    - ID attributes register the element under their value;
    - IDREF(S) attributes become reference edges from the owning
      element to the target element(s).  Tree and reference edges are
      not distinguished in the graph. *)

type config = {
  id_attrs : string list;  (** attribute names that define ids, e.g. [["id"]] *)
  idref_attrs : string list;
      (** attribute names whose (space-separated) values are references *)
}

val default_config : config
(** [id_attrs = ["id"]], [idref_attrs = ["idref"; "ref"]]. *)

type result = {
  graph : Dkindex_graph.Data_graph.t;
  n_reference_edges : int;
  unresolved_refs : string list;  (** referenced ids that were never defined *)
}

val convert : ?config:config -> ((Xml_sax.event -> unit) -> unit) -> result
(** [convert events] runs the mapping over the events that the
    producer [events emit] feeds to [emit], straight into the graph
    builder: peak memory is the graph plus whatever the producer
    holds.  Producers include {!Xml_sax.iter} over a parser,
    {!Xml_sax.emit_tree} over a materialized tree, and the dataset
    generators' [events].
    @raise Invalid_argument on events outside the root element. *)

val convert_file : ?config:config -> string -> result
(** [convert] over {!Xml_sax.iter_file}: stream-parse an XML file. *)

val stream_to_container :
  ?config:config ->
  ?mem_budget:int ->
  ?tmp_dir:string ->
  path:string ->
  ((Xml_sax.event -> unit) -> unit) ->
  int * string list
(** The same mapping over a {!Dkindex_graph.Graph_stream}:
    [stream_to_container ~path events] writes a container file at
    [path] without materializing the graph.  Node ids are allocated in
    call order by both the builder and the stream, so the file is
    byte-identical to saving [(convert events).graph].  Returns
    [(n_reference_edges, unresolved_refs)].  On any exception the
    partial output is aborted and the exception reraised. *)
