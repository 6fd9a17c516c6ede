(** The big-endian primitives that the wire protocol ({!Wire}) and the
    write-ahead log ({!Wal}) are both written in.

    Writers append to an {!Obuf}.  Readers take from a {!cursor}, a
    bounded view of a slice of an immutable string, so a frame or a
    record decodes in place.  Every read checks against the slice's
    end, never the string's, and a declared count that the remaining
    bytes could not hold is refused before anything is allocated.  A
    reader that runs short or meets a malformed value raises {!Bad};
    {!Wire} and {!Wal} catch it and return [Error] or truncate. *)

(** {1 Writers} *)

val add_u48 : Obuf.t -> int -> unit
(** 16 high bits, then 32 low: WAL byte offsets and digest roots. *)

val add_seq : Obuf.t -> int -> unit
(** A u32 generation number, [-1] written as [0xffffffff]. *)

val add_str16 : Obuf.t -> string -> unit
(** u16 length, then the bytes.  @raise Invalid_argument past 65535. *)

val add_str32 : Obuf.t -> string -> unit

val add_list16 : Obuf.t -> (Obuf.t -> 'a -> unit) -> 'a list -> unit
(** u16 count, then each item.  @raise Invalid_argument past 65535. *)

val add_pairs16 : Obuf.t -> (string * int) list -> unit
(** [add_list16] of (str16, u32) pairs: requirement lists. *)

(** {1 Readers} *)

exception Bad of string

type cursor

val cursor : string -> pos:int -> len:int -> cursor
(** A reader over bytes [pos, pos + len) of the string. *)

val u32_at : string -> int -> int
(** The u32 at an offset the caller has bounds-checked: a frame's or a
    record's length prefix. *)

val u8 : cursor -> int
val u16 : cursor -> int
val u32 : cursor -> int
val u48 : cursor -> int
val seq32 : cursor -> int
val str16 : cursor -> string
val str32 : cursor -> string

val list16 : cursor -> min_item_bytes:int -> (cursor -> 'a) -> 'a list
(** Inverse of {!add_list16}; [min_item_bytes] is the fewest bytes an
    item can take, for the count guard. *)

val pairs16 : cursor -> (string * int) list

val check_count : cursor -> int -> min_item_bytes:int -> unit
(** The count guard, for arrays with a u32 count. *)

val expect_end : cursor -> string -> unit
(** Raise {!Bad} unless the whole slice was read. *)

val skip_rest : cursor -> unit
(** Consume the rest of the slice (fields a newer peer appended). *)
