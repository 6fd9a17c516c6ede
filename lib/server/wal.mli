(** Write-ahead log of applied index mutations.

    An append-only file of self-checking records:
    {v
    record  := u32_be payload_length, u32_be crc32(payload), payload
    payload := u8 kind, body
    v}

    The writing side is dkserve's event loop, the one thread that
    applies writes; every mutation is appended {e after} it is applied in memory and
    {e before} it is acknowledged, so on restart the log replays to a
    state at least as new as everything the server ever acknowledged.

    The reading side ({!replay}) is total: a torn or corrupt tail —
    a record whose length field runs past end-of-file, whose CRC does
    not match, or whose payload does not decode — is a clean
    truncation point, never an error.  Replay yields exactly the
    longest valid record prefix of the file. *)

type mutation =
  | Add_edge of { u : int; v : int }
  | Remove_edge of { u : int; v : int }
  | Add_subgraph of { graph : string; reqs : (string * int) list }
      (** [graph] is a {!Dkindex_graph.Serial} document, stored
          verbatim so replay re-parses exactly what was applied. *)
  | Promote of (string * int) list
  | Demote of (string * int) list

type sync_policy =
  | Always  (** fsync after every record, before acknowledging *)
  | Interval of int  (** fsync every [n] records (and on close) *)
  | Never  (** leave flushing to the OS *)

val sync_policy_of_string : string -> (sync_policy, string) result
(** ["always"], ["never"], ["interval"], ["interval:N"]. *)

val sync_policy_to_string : sync_policy -> string

val encode_mutation : Obuf.t -> mutation -> unit
(** Append one full record (length + CRC + payload) to [buf]. *)

val encode_body : Obuf.t -> mutation -> unit
(** The bytes after the kind byte (0x01 [Add_edge] … 0x05 [Demote]):
    also the body of the {!Wire} request that carries the mutation. *)

val decode_body : int -> Dkindex_graph.Cursor.t -> mutation
(** [decode_body kind c] reads the body of a [kind] mutation.
    @raise Dkindex_graph.Cursor.Bad on an unknown kind or malformed bytes. *)

(** {1 Writer} *)

type t

val create : ?faults:Faults.t -> sync:sync_policy -> string -> t
(** Open [path] for appending (created if absent).  The caller must
    have truncated any torn tail first — {!Checkpoint} always starts
    a fresh log, so this never appends after garbage in practice.
    @raise Unix.Unix_error if the file cannot be opened. *)

val append : t -> mutation -> unit
(** Write one record and apply the sync policy.
    @raise Unix.Unix_error when the disk fails; after an error the
    log must be considered unwritable (read-only degradation). *)

val sync : t -> unit
val records : t -> int
val bytes : t -> int
val close : t -> unit
(** Final fsync (best effort) and close. *)

(** {1 Replay} *)

type replay = {
  mutations : mutation list;  (** the longest valid record prefix, in order *)
  ends : int list;  (** each of those records' end offset in the file *)
  valid_bytes : int;  (** byte length of that prefix *)
  torn_bytes : int;  (** bytes discarded after it (0 = clean file) *)
}

val replay : ?faults:Faults.t -> string -> replay
(** Read [path].  A missing file is an empty replay.  [faults] filters
    every read through {!Faults.read} — a bit flip lands in the CRC
    check (truncating the replay there), short reads and EINTR storms
    are absorbed by the read loop.
    @raise Unix.Unix_error only on non-ENOENT open errors. *)

val replay_string : string -> replay
(** {!replay} over in-memory bytes (for the fuzz tests). *)
