(** The on-disk container format: versioned header, CRC'd section
    table, page-aligned sections holding the graph's flat int vectors.

    A container opens in O(1): the header and section table are
    validated (magic, kind, word size, byte order, CRC, and every
    section extent against the real file length — so truncation is
    caught up front), the int sections are memory-mapped in place as
    {!Int_vec} values, and only the small byte sections (label pool,
    node values) are parsed.  Pages are loaded on demand by the OS.

    {b Lifetime and ownership.}  Mappings are private (copy-on-write,
    never written back) and live as long as the vectors that view them
    — released by the GC finalizer, so an opened graph owns its file
    content with no explicit close.  The file descriptor is closed
    before {!open_graph} returns; deleting or rewriting the file while
    a graph still uses the old mapping is safe (the pages stay).
    Mutating an opened graph is allowed: updates accumulate in the
    heap-side overflow layer of its {!Adjacency} store, allocated by
    the first update, and the first overflow fold migrates the whole
    graph to heap vectors.

    Section bodies carry CRC-32s checked only under [~verify] — a full
    scan of a multi-GB file on every open would defeat the mapping. *)

type kind = Graph | Index

type error =
  | Bad_magic  (** not a container file *)
  | Bad_kind of { expected : int; got : int }
  | Bad_word_size of int
  | Bad_endianness
  | Truncated of string  (** header, table, or a section extent past EOF *)
  | Crc_mismatch of string  (** ["header"] or a section tag *)
  | Missing_section of string
  | Malformed of string  (** shape inconsistency between sections *)

exception Error of error

val pp_kind : Format.formatter -> kind -> unit
val pp_error : Format.formatter -> error -> unit

val save_graph : Data_graph.t -> string -> unit
(** Write [g] as a graph container (atomically: tmp file + rename).
    Pending updates are flattened first, so the stored CSR is
    canonical — sorted, deduplicated runs. *)

val open_graph : ?verify:bool -> string -> Data_graph.t
(** Map a graph container.  O(1) plus the byte sections; with
    [~verify:true] additionally streams every section through its
    CRC first.  @raise Error on any validation failure. *)

val probe : string -> kind option
(** [probe path] is the container kind of [path], or [None] if the
    file is missing, too short, or not a container. *)

(** {1 Writer — for streaming producers}

    {!Graph_stream} and the index serializer write containers without
    materializing sections in RAM: open a section, append ints or
    bytes (buffered, CRC'd and spilled in chunks), close it.  Sections
    land in file order; [finish] patches the header and renames. *)

module Writer : sig
  type t

  val create : string -> kind:kind -> n_sections:int -> t
  val begin_section : t -> string -> unit
  val write_int : t -> int -> unit
  val write_vec : t -> Int_vec.t -> unit
  val write_string : t -> string -> unit
  val end_section : t -> unit

  val int_section : t -> string -> Int_vec.t -> unit
  (** [begin_section]; the whole vector; [end_section]. *)

  val finish : t -> unit
  (** Validates the declared section count, writes the header, fsyncs,
      renames into place. *)

  val abort : t -> unit
  (** Close and unlink the temporary file (idempotent). *)
end

(** {1 Shared graph-section encoders}

    One code path for {!save_graph} and the streaming builder, so that
    equal graph content produces byte-identical files. *)

val graph_n_sections : int

val write_graph_sections : Writer.t -> Data_graph.t -> unit
(** The {!graph_n_sections} sections of {!save_graph}, into an open
    writer — embedding a graph inside a larger (e.g. index)
    container. *)

val write_pool : Writer.t -> Label.Pool.t -> unit
val write_values : Writer.t -> Payloads.t -> unit

val write_meta : Writer.t -> int list -> unit

val read_injector : (Unix.file_descr -> bytes -> int -> int -> int) ref
(** The read primitive every container load goes through (default
    [Unix.read]).  Fault-injection tests swap in a misbehaving reader
    (short reads, EINTR, bit flips) to exercise the CRC and
    truncation checks; the internal read loop already absorbs EINTR
    and short reads, so only corruption may surface — as {!Error}.
    Reset it to [Unix.read] afterwards.  Not domain-safe; test-only. *)

(** {1 Reader — for non-graph kinds}

    The index serializer reads its containers through this: the same
    header validation and section mapping as {!open_graph}, plus
    access to sections beyond the embedded graph's eight. *)

module Reader : sig
  type t

  val with_file : ?verify:bool -> kind:kind -> string -> (t -> 'a) -> 'a
  (** Open, validate (optionally streaming every section CRC), run the
      callback, close the descriptor.  Mappings taken inside the
      callback outlive it (see the module doc on lifetime).
      @raise Error on any validation failure. *)

  val graph : t -> Data_graph.t
  (** Decode the embedded graph sections (the {!graph_n_sections}
      written by {!save_graph} / {!Graph_stream}). *)

  val int_vec : t -> string -> Int_vec.t
  (** Map an int section by tag.  @raise Error if missing or
      malformed. *)
end
