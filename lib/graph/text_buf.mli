(** A growable byte buffer for the text codecs, with a gap reserved in
    front of its contents.

    A document whose header depends on the body (the index codec's
    [graph <len>] line) is written body first, and the header then
    goes into the gap with {!prepend}: the document is built in one
    buffer, with no second copy to put the header in front.  The
    result is a slice of the buffer ({!bytes}, {!start}, {!length}).

    Integers are written as decimal digits straight into the buffer. *)

type t

val create : gap:int -> int -> t
(** [create ~gap hint]: an empty buffer with room for [gap] header
    bytes in front and [hint] bytes of contents before it grows. *)

val length : t -> int
(** The bytes written so far, the prepended ones included. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_int : t -> int -> unit
(** [add_string t (string_of_int n)] without the string. *)

(** {2 Whole lines}

    One room check per line rather than one per piece. *)

val add_line : t -> string -> unit
(** [s], then ['\n']. *)

val add_int_line : t -> int -> unit
(** [n], then ['\n']. *)

val add_int_pair_line : t -> int -> int -> unit
(** [a], a space, [b], then ['\n']. *)

val prepend : t -> string -> unit
(** Put [s] in front of the contents, into the gap.
    @raise Invalid_argument if [s] is longer than the gap left. *)

val bytes : t -> Bytes.t
val start : t -> int
(** The contents are [bytes t], from [start t] for [length t] bytes:
    the buffer's own storage, valid until the next write. *)

val contents : t -> string
(** A copy of the contents. *)
