(** The big-endian writers that the wire protocol ({!Wire}) and the
    write-ahead log ({!Wal}) are both written in, and the readers of
    the shapes only they use.

    Writers append to an {!Obuf}.  Readers take from a
    {!Dkindex_graph.Cursor.t}, the one bounded cursor of every binary
    format: a frame or a record decodes in place, every read checks
    against the slice's end, and a declared count that the remaining
    bytes could not hold is refused before anything is allocated.  A
    reader that runs short or meets a malformed value raises
    {!Dkindex_graph.Cursor.Bad}; {!Wire} and {!Wal} catch it and return
    [Error] or truncate. *)

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

val seq32 : Dkindex_graph.Cursor.t -> int
(** Inverse of {!add_seq}. *)

val pairs16 : Dkindex_graph.Cursor.t -> (string * int) list
(** Inverse of {!add_pairs16}. *)
