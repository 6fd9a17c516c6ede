(** Streaming graph construction straight to a {!Container} file.

    The {!Builder} API, except edges feed two external sorters (one
    per direction) instead of an in-RAM list, and {!finish} writes the
    container without ever materializing the adjacency: RAM use is
    O(n) label codes + fixed sorter buffers, with the O(m) edge data
    in spilled runs.

    Streaming a generator through this module and saving the same
    generator's materialized graph with {!Container.save_graph}
    produce byte-identical files: the merge-dedup here computes
    exactly the canonical CSR [Data_graph.make] builds, and the
    section encoders are shared. *)

type t

val create :
  ?root_label:string ->
  ?mem_budget:int ->
  ?tmp_dir:string ->
  path:string ->
  unit ->
  t
(** Node 0 is the root (labeled [ROOT] unless overridden).
    [mem_budget] is each direction's sorter budget in words. *)

val root : t -> int
val n_nodes : t -> int
val pool : t -> Label.Pool.t
val add_node : t -> string -> int
val add_child : t -> parent:int -> string -> int
val add_child_code : t -> parent:int -> Label.t -> int
(** As {!Builder.add_child_code}. *)

val add_value : ?text:string -> t -> parent:int -> int
val set_value : t -> int -> string -> unit

val add_edge : t -> int -> int -> unit
(** Endpoints may reference nodes not yet added; ranges are checked at
    {!finish}. *)

val finish : t -> unit
(** Merge both directions and write the container (atomic tmp +
    rename).  Single-use.
    @raise Invalid_argument on out-of-range edge endpoints. *)

val abort : t -> unit
(** Drop sorter resources without writing anything. *)
