(** Checkpoint + WAL durability for a served D(k)-index.

    A data directory holds numbered generations:
    {v
    checkpoint-<seq>.index   Index_serial snapshot (atomic tmp+rename)
    checkpoint-<seq>.crc     "crc32 length" sidecar of the snapshot
    wal-<seq>.log            mutations applied after that snapshot
    v}

    The sidecar exists because the text snapshot format has no
    whole-file check of its own: a flipped digit can still parse.
    Recovery and the scrubber reject a checkpoint whose sidecar
    contradicts it; a checkpoint {e without} a sidecar (crash between
    the two writes, or written before sidecars existed) is accepted
    on parse alone.

    The single mutator domain owns the log: it applies a mutation in
    memory, {!log_mutation}s it, and only then acknowledges.  When the
    log grows past the configured record/byte thresholds (or the timer
    fires), {!maybe_checkpoint} encodes the index
    ({!Index_serial.encode}: one pass into one buffer of its own),
    rotates to generation [seq+1], and queues that buffer slice on a
    {!Bqueue} for a background writer domain — the mutator never
    blocks on checkpoint I/O.  The writer writes the slice and CRCs it
    for the sidecar where the encoder left it: no copy of the
    document is made after the encode.  {!close} closes that queue and joins the writer,
    which first writes every snapshot still queued.  The
    two newest checkpoint generations are kept; older files are
    pruned only after a newer snapshot is durably renamed, so
    {!recover} can always fall back one generation: newest valid
    checkpoint ⊕ replay of every following WAL, with a torn or
    corrupt tail treated as a clean truncation, never a crash.

    {!start} begins by writing a fresh synchronous checkpoint of the
    index it is given, so a recovered state is made durable (and old
    generations prunable) before the server accepts traffic.  Every
    durable launch pays that encode, write, CRC and fsync before it
    listens. *)

open Dkindex_core

type config = {
  dir : string;
  sync : Wal.sync_policy;
  checkpoint_records : int;  (** rotate when the WAL holds this many records; <= 0 disables *)
  checkpoint_bytes : int;  (** ... or this many bytes; <= 0 disables *)
  checkpoint_interval_s : float;
      (** ... or this much time since the last rotation (checked when
          mutations arrive — an idle server has nothing to flush);
          <= 0 disables *)
}

val default_config : dir:string -> config
(** sync [Interval 64], 4096 records, 8 MiB, 60 s. *)

(** {1 Recovery} *)

type recovery = {
  index : Index_graph.t option;  (** [None]: no loadable checkpoint in [dir] *)
  checkpoint_seq : int;  (** generation of the loaded checkpoint; -1 if none *)
  replayed_records : int;  (** WAL records applied on top of it *)
  torn_bytes : int;  (** trailing bytes discarded from torn WAL tails *)
  fallback_checkpoints : int;  (** newer checkpoints skipped as corrupt *)
  replay_errors : int;  (** records that failed to re-apply (always 0 unless files were tampered mid-log) *)
  load_ms : float;  (** reading, sidecar-checking and decoding checkpoints, fallbacks included *)
  replay_ms : float;  (** replaying the WAL chain on top of the loaded checkpoint *)
}

val recover : ?read_faults:Faults.t -> dir:string -> unit -> recovery
(** Never raises on corrupt or torn files: it loads the newest
    checkpoint that parses, replays the longest valid prefix of each
    following WAL, and reports what it skipped.  A missing or empty
    directory yields [{ index = None; _ }].  [read_faults] filters
    every checkpoint and WAL read through {!Faults.read}: a flipped
    bit lands in the snapshot decoder or the WAL CRC check (falling
    back / truncating), short reads and EINTR storms are absorbed. *)

val apply_mutation : Index_graph.t -> Wal.mutation -> Index_graph.t
(** Apply one logged mutation (the same code path replay uses, shared
    with the server so live application and recovery cannot diverge).
    Returns the index to use afterwards — subgraph addition and
    demotion replace it wholesale.
    @raise Failure on a semantically invalid mutation. *)

(** {1 Live manager} *)

type t

val start :
  ?wal_faults:Faults.t -> ?checkpoint_faults:Faults.t -> ?recovery:recovery ->
  config -> Index_graph.t -> t
(** Write a fresh synchronous checkpoint of [index] at the next
    generation (encoded once, written and CRC'd in place), open its
    WAL, and spawn the background checkpoint writer.  [recovery] is carried into {!stats}.
    @raise Unix.Unix_error if the initial checkpoint cannot be
    written (a server that cannot persist at startup must not
    pretend it can). *)

val log_mutation : t -> Wal.mutation -> unit
(** Append to the WAL and apply the sync policy.
    @raise Unix.Unix_error on disk failure — the caller must then
    {!note_wal_failure} and degrade to read-only. *)

val maybe_checkpoint : t -> Index_graph.t -> unit
(** Rotate + snapshot in the background if a trigger fired.  No-op in
    read-only mode.  Never raises: a rotation failure degrades to
    read-only instead. *)

val checkpoint_now : t -> Index_graph.t -> (unit, string) result
(** Synchronous rotate + snapshot (the [Snapshot] request). *)

val read_only : t -> bool
val note_wal_failure : t -> string -> unit
(** Flip to read-only and record the error for {!stats}. *)

val stats : t -> (string * string) list
(** WAL/checkpoint/recovery counters, domain-safe.  Persistence stage
    times: [checkpoint_last_encode_us] (the {!Index_serial.encode}
    of the newest checkpoint, on whichever domain took it),
    [recovery_load_ms] and [recovery_replay_ms] (the two halves of
    {!recover}, as fractional milliseconds; 0 without a recovery). *)

val write_atomic : ?faults:Faults.t -> string -> string -> Bytes.t -> int -> int -> unit
(** [write_atomic dir name b off len] makes bytes [off .. off + len - 1]
    of [b] the durable content of [dir/name]: it writes
    [dir/name.tmp], fsyncs it, renames it over [dir/name] and fsyncs
    [dir], so after a crash the file holds either its previous content
    or those bytes.  [faults] filters the write and the
    file fsync ({!Faults.write}, {!Faults.fsync}).
    @raise Unix.Unix_error if a write, fsync or the rename fails (a
    failed write or file fsync removes the temp file). *)

(** {1 Replication hooks} *)

val dir : t -> string

val wal_position : t -> int * int
(** Current [(generation, byte offset)] of the live WAL, readable from
    any domain.  The offset only ever covers complete records, so a
    tailer reading up to it never ships a torn record of its own
    making. *)

val wal_file : dir:string -> seq:int -> string
(** Path of generation [seq]'s WAL file. *)

(** {1 Scrubber hooks} *)

val checkpoint_file : dir:string -> seq:int -> string
val crc_file : dir:string -> seq:int -> string
(** Path of generation [seq]'s checkpoint / CRC sidecar. *)

val checkpoint_seqs : string -> int list
val wal_seqs : string -> int list
(** Generations present in a data directory, increasing. *)

val seq_of : string -> prefix:string -> suffix:string -> int option
(** The generation in a file name [<prefix><seq><suffix>], if the name
    has that shape. *)

val check_sidecar : dir:string -> seq:int -> string -> (bool, string) result
(** Validate snapshot bytes against their CRC sidecar: [Ok true] =
    sidecar present and matching, [Ok false] = no sidecar,
    [Error reason] = sidecar contradicts the payload. *)

val fsync_dir : string -> unit
(** Best-effort directory fsync, making renames/unlinks durable. *)

val newest_checkpoint : dir:string -> (int * string) option
(** Newest checkpoint generation whose snapshot loads, as raw
    [Index_serial] bytes (what a bootstrap ships to a replica).
    [None] if no checkpoint parses. *)

val close : t -> Index_graph.t -> (unit, string) result
(** Final synchronous checkpoint (if the WAL holds records), then
    close the writer's queue and join the writer once it has written
    every queued snapshot, then close the WAL.  [Error] carries the
    reason the final snapshot could not be written. *)
