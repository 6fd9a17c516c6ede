(** Incremental construction of data graphs.

    A builder accumulates nodes and edges and produces an immutable
    {!Data_graph.t}.  The first node added becomes the root and should
    carry the label {!Label.root_name}; {!create} adds it for you.
    Node ids are allocated in call order and label codes in the order
    labels are first interned.  A producer that interns each label
    once into {!pool} passes codes ({!add_child_code}) and skips the
    per-node name lookup; [VALUE] is looked up once per builder.
    Label codes and edge endpoints are appended to flat int storage
    that grows by whole segments, each as long as all before it, so
    adding a node or an edge boxes nothing and growing copies nothing.
    {!build} makes no prefix copies: the CSR construction reads the
    edge segments in place and range-checks each endpoint as it reads
    it, and only the label codes are copied into the graph. *)

type t

val create : unit -> t
(** A fresh builder whose node [0] is the [ROOT]-labeled root. *)

val create_with_root : string -> t
(** Like {!create} but with a custom root label (used when building
    sub-documents that are later grafted). *)

val root : t -> int

val add_node : t -> string -> int
(** [add_node b label] allocates a new node and returns its id. *)

val add_child : t -> parent:int -> string -> int
(** [add_child b ~parent label] = [add_node] + [add_edge parent]. *)

val add_child_code : t -> parent:int -> Label.t -> int
(** {!add_child} with a label already interned in {!pool}. *)

val add_value : ?text:string -> t -> parent:int -> int
(** Attach a [VALUE]-labeled leaf under [parent] (atomic content),
    optionally recording its payload. *)

val set_value : t -> int -> string -> unit
(** Record an atomic payload on an existing node.  The first payload
    recorded for a node (by [set_value] or {!add_value}'s [text]) wins;
    a later [set_value] on the same node is ignored, as in
    {!Graph_stream.set_value}. *)

val add_edge : t -> int -> int -> unit
val n_nodes : t -> int
val pool : t -> Label.Pool.t

val build : t -> Data_graph.t
(** Freeze the builder into a graph that shares no storage with it.
    The builder may keep being used afterwards; later [build]s see
    later additions and earlier graphs are unaffected.
    @raise Invalid_argument if an edge names a node that does not
    exist. *)

(** What a producer needs, offered by this module and by
    {!Graph_stream} alike: one generator feeds either, and both
    allocate node ids in call order and label codes in first-intern
    order, so the two give the same graph. *)
module type S = sig
  type t

  val root : t -> int
  val pool : t -> Label.Pool.t
  val add_node : t -> string -> int
  val add_child : t -> parent:int -> string -> int
  val add_child_code : t -> parent:int -> Label.t -> int
  val add_value : ?text:string -> t -> parent:int -> int
  val set_value : t -> int -> string -> unit
  val add_edge : t -> int -> int -> unit
end
