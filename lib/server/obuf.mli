(** Growable output buffer for wire encoding.

    Unlike [Stdlib.Buffer] this exposes the backing [Bytes.t] directly
    ({!base}), so a frame can be written to a socket — or patched in
    place ({!patch_u32}) — without the [Buffer.to_bytes] copy per
    frame.  Intended use: one reused buffer per connection or per
    encoding site, [clear]ed between frames; steady-state encoding
    allocates nothing. *)

type t

val create : int -> t
(** [create hint] with an initial capacity of at least [hint] bytes. *)

val length : t -> int
val clear : t -> unit

val base : t -> Bytes.t
(** The backing store; bytes [0 .. length - 1] are valid.  Invalidated
    by any subsequent add (the buffer may grow by reallocating). *)

val contents : t -> string
(** Copy out the valid bytes. *)

val add_u8 : t -> int -> unit
val add_u16 : t -> int -> unit
val add_u32 : t -> int -> unit
val add_string : t -> string -> unit

val patch_u32 : t -> int -> int -> unit
(** [patch_u32 t off v] overwrites the 4 bytes at [off] with [v]
    big-endian; [off + 4 <= length t]. *)
