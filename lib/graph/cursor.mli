(** A bounded reader over a slice of an immutable string: the one
    decoder cursor of the binary formats, the wire protocol and the
    write-ahead log in the server, and the compact index body
    ({!Dkindex_core.Index_serial}).

    Every read checks against the slice's end, never the string's, so
    a frame, a record or a checkpoint body decodes in place.  A
    declared count that the remaining bytes could not hold is refused
    by {!check_count} before anything is allocated for it.  A read
    that runs short or meets a malformed value raises {!Bad}; callers
    catch it and return [Error], truncate, or re-raise as their own
    error. *)

exception Bad of string

type t

val make : string -> pos:int -> len:int -> t
(** A reader over bytes [pos, pos + len) of the string.
    @raise Invalid_argument if that range is not within the string. *)

val u32_at : string -> int -> int
(** The big-endian u32 at an offset the caller has bounds-checked: a
    frame's or a record's length prefix. *)

(** {1 Big-endian fixed-width integers} *)

val u8 : t -> int
val u16 : t -> int
val u32 : t -> int

val u48 : t -> int
(** 16 high bits, then 32 low. *)

(** {1 Variable-length integers} *)

val varint : t -> int
(** An unsigned LEB128 integer: seven bits a byte, low group first,
    the high bit set on every byte but the last.  At most nine bytes,
    and the value must fit in 62 bits, so it is never negative; a
    longer encoding, or a ninth byte above [0x3f], raises {!Bad}. *)

(** {1 Byte strings} *)

val sub : t -> int -> string
(** The next [n] bytes, copied. *)

val str16 : t -> string
(** u16 length, then the bytes. *)

val str32 : t -> string
(** u32 length, then the bytes. *)

(** {1 Guards} *)

val check_count : t -> int -> min_item_bytes:int -> unit
(** [check_count c n ~min_item_bytes] raises {!Bad} unless [n >= 0]
    and [n] items of at least [min_item_bytes] bytes each fit in what
    is left: the guard to run before allocating for a declared count. *)

val list16 : t -> min_item_bytes:int -> (t -> 'a) -> 'a list
(** A u16 count, checked with {!check_count}, then that many items. *)

val expect_end : t -> string -> unit
(** Raise {!Bad} unless the whole slice was read. *)

val skip_rest : t -> unit
(** Consume the rest of the slice (fields a newer peer appended). *)
