(** Abstract syntax of regular path expressions (paper, Section 3):

    {v R ::= label | _ | R.R | R|R | (R) | R? | R* v}

    A path expression matches a data node [n] if the label path of some
    word of [L(R)] matches a node path ending in [n] — the path may
    start anywhere in the graph, which gives the partial-match ['//']
    semantics the paper expects of most queries. *)

type t =
  | Any  (** [_], matches any single label *)
  | Label of string
  | Seq of t * t
  | Alt of t * t
  | Opt of t
  | Star of t

val seq_of_labels : string list -> t
(** [seq_of_labels ["a"; "b"]] is [a.b].
    @raise Invalid_argument on the empty list. *)

val as_label_seq : t -> string list option
(** Inverse of {!seq_of_labels}: [Some labels] when the expression is a
    plain label sequence (the only query shape whose soundness the
    index can decide from its length). *)

val max_word_length : t -> int option
(** Length (in labels) of the longest word in [L(R)], or [None] when
    the language is unbounded (contains a productive [*]). *)

val min_word_length : t -> int

val labels : t -> string list
(** Distinct labels mentioned, in first-occurrence order. *)

val pp : Format.formatter -> t -> unit
(** Prints a concrete expression that {!Path_parser.parse} reads back. *)

val to_string : t -> string
val equal : t -> t -> bool
