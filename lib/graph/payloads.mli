(** Atomic node payloads as two flat parallel arrays: node ids,
    strictly increasing, and their strings.

    A frozen {!t} is immutable, so a graph and its copies share one.
    Lookup is a binary search; iteration walks the arrays in node
    order with no sort and no allocation.

    Producers (the builder, the streaming builder, both decoders)
    append into an {!acc} in whatever order their input comes in.
    {!freeze} sorts only when the appends were out of order, and a
    node given more than one payload keeps the first one appended.
    The accumulator fills small fixed chunks (minor-heap blocks), and
    {!freeze} gathers them into two exact-size arrays. *)

type t

val empty : t

val length : t -> int
(** The number of nodes carrying a payload. *)

val node : t -> int -> int
(** [node p i] is the [i]-th node id, [0 <= i < length p]; increasing
    in [i]. *)

val text : t -> int -> string
(** [text p i] is the payload of [node p i]. *)

val find : t -> int -> string option
(** The payload of a node, if it has one.  O(log (length p)). *)

val iter : t -> (int -> string -> unit) -> unit
(** Visit every (node, payload) pair in increasing node order. *)

val of_list : (int * string) list -> t
(** The first entry for a node wins. *)

val of_arrays : int array -> string array -> t
(** Adopt node ids, strictly increasing, and their payloads, as they
    are: the arrays must not be written afterwards.
    @raise Invalid_argument if the lengths differ or the ids do not
    increase strictly. *)

(** {1 Accumulation} *)

type acc

val acc : unit -> acc
(** An empty accumulator. *)

val add : acc -> int -> string -> unit
(** [add a node payload] appends; a payload for a node that already
    has one is ignored by the next {!freeze}. *)

val freeze : acc -> t
(** The payloads appended so far, in arrays of their own: the
    accumulator stays usable, and later appends never change an
    earlier result.  O(appends). *)
