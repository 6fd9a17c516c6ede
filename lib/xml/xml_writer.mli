(** Serialization of {!Xml_ast} documents. *)

val escape_text : string -> string
val escape_attr : string -> string

val doc_to_string : ?indent:bool -> Xml_ast.doc -> string
(** With [indent] (default [true]), elements are pretty-printed two
    spaces per level; text content is emitted inline so mixed content
    survives a round trip through {!Xml_sax.parse_string} (which
    drops whitespace-only text). *)

val write_file : ?indent:bool -> string -> Xml_ast.doc -> unit
