(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the one
    checksum of the container sections and header, the WAL records and
    the checkpoint sidecar.  Slicing-by-8: eight table lookups per
    64 bits. *)

val update : int -> Bytes.t -> int -> int -> int
(** [update crc b off len] extends [crc], the CRC-32 of some prefix,
    by bytes [off .. off + len - 1] of [b]; [update 0] starts a fresh
    checksum, so splitting a range into consecutive chunks and chaining
    [update] gives the CRC of the whole range.
    @raise Invalid_argument if [len > 0] and the range is not within
    [b]. *)

val string : string -> int -> int -> int
(** [string s off len] is the CRC-32 of [String.sub s off len]
    ([update 0] over a string).
    @raise Invalid_argument as {!update}. *)
