(** Deterministic SplitMix64 pseudo-random number generator.

    All generators in this library take explicit seeds so that every
    dataset, workload and experiment is reproducible bit-for-bit,
    independent of the stdlib [Random] state.

    The state is an unboxed 64-bit word, so {!int}, {!range},
    {!bool}, {!choose} and {!shuffle} allocate nothing per draw
    ({!float} returns its result boxed, like any OCaml function that
    returns a float; {!next_int64} boxes its result). *)

type t

val create : seed:int -> t
val copy : t -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** [int t n] is uniform in [0, n).  @raise Invalid_argument if [n <= 0]. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val choose : t -> 'a array -> 'a
val choose_list : t -> 'a list -> 'a
val shuffle : t -> 'a array -> unit

val geometric : t -> p:float -> max:int -> int
(** Number of failures before the first success, capped at [max]; used
    for "a few, occasionally many" child counts. *)
