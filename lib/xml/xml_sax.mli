(** Streaming (SAX-style) XML parsing — the one XML front end.

    The XML subset: the XML declaration, DOCTYPE (skipped, internal
    subset included), comments and processing instructions (skipped),
    CDATA sections, elements with attributes (single or double
    quoted), and character data with the five predefined entities and
    decimal / hexadecimal character references of at most 32 bytes
    between [&] and [;].  Namespaces are not interpreted (prefixes
    stay part of the tag name).

    A document arrives as a pull stream of events over a
    constant-size buffer:

    - elements open and close ({!Start_element} / {!End_element});
    - character data and CDATA arrive as {!Text} (whitespace-only text
      is dropped, contiguous text may arrive in several events);
    - comments, processing instructions and DOCTYPE are skipped.

    Everything else is built on {!next}: {!iter} and {!iter_file} turn
    a stream into an event producer — the shape
    {!Xml_to_graph.convert} consumes — and {!parse_string} /
    {!parse_file} collect the events into an {!Xml_ast} tree for the
    callers that want one. *)

type event =
  | Start_element of { tag : string; attrs : Xml_ast.attr list }
  | End_element of string
  | Text of string

exception Parse_error of { line : int; msg : string }

type t

val of_string : string -> t
val of_channel : ?buffer_size:int -> in_channel -> t
(** [buffer_size] (default 64 KiB) bounds lexer memory; individual
    tokens (a tag with its attributes, an entity) must fit in it. *)

val next : t -> event option
(** The next event, or [None] after the root element closes.
    @raise Parse_error on malformed input (including trailing content
    and unclosed elements). *)

val iter : t -> (event -> unit) -> unit
(** Feed every remaining event, in document order.
    @raise Parse_error as {!next}. *)

val iter_file : string -> (event -> unit) -> unit
(** [iter_file path] streams the file's events, reading it through a
    {!of_channel} buffer that is closed afterwards. *)

val parse_string : string -> Xml_ast.doc
(** The whole document as a tree.  @raise Parse_error on malformed
    input. *)

val parse_file : string -> Xml_ast.doc

val pp_error : Format.formatter -> exn -> unit
(** Pretty-print a {!Parse_error}; re-raises other exceptions. *)

val collect : ((event -> unit) -> unit) -> Xml_ast.doc
(** [collect events] rebuilds the tree that the producer [events]
    emits — the materializing end of the event-primitive generators
    ([doc] = collect the same events that [stream] would emit).
    @raise Invalid_argument on an ill-formed sequence (mismatched or
    stray end tags, text outside elements, a second root, an
    incomplete document). *)

val emit_tree : Xml_ast.element -> (event -> unit) -> unit
(** Replay a materialized subtree as events, in document order — the
    exact inverse of {!collect}.  Used by the dataset generators to
    build bounded subtrees with the {!Xml_ast} constructors and flush
    them into an event consumer. *)
