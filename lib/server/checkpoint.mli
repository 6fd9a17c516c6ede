(** Checkpoint + WAL durability for a served D(k)-index.

    A data directory holds numbered generations:
    {v
    checkpoint-<seq>.index   one header line, then the index body
    wal-<seq>.log            mutations applied after that snapshot
    v}

    The body is {!Index_serial.encode_compact}'s: the label pool, the
    label codes, the children as delta-coded sorted runs, the payloads,
    the classes and their k and requirement, as varints (the layout is
    in index_serial.mli).  Checkpoints written before the compact body
    hold the text document instead; {!recover} and a replica's install
    read either, through {!Index_serial.decode}, which tells them apart
    by the magic.  Nothing writes text checkpoints any more.

    The header line, [dkindex-checkpoint 1 <crc32: 8 hex> <length: 12
    digits>], checks the body after it: neither body format has a
    whole-file check of its own (a flipped byte can still decode).
    {!body} is the one reader; recovery, {!newest_checkpoint}, the
    scrubber and a replica's snapshot install all go through it.  A
    file without the header predates it: it is accepted if its
    [checkpoint-<seq>.crc] sidecar ("crc32 length") matches, else if
    it parses as a text document.  Nothing writes sidecars; pruning
    deletes old ones.  Header and body are one {!write_atomic} (the
    header fills the encoder's front gap, {!Index_serial.front_room}),
    so a crash leaves the whole file or a [.tmp] that {!start} sweeps,
    nothing between.

    dkserve's event loop owns the log: it applies a mutation in
    memory, {!log_mutation}s it, and only then acknowledges.  When the
    log grows past the configured record/byte thresholds (or the timer
    fires), {!maybe_checkpoint} encodes the index
    ({!Index_serial.encode_compact}: one pass into one buffer of its
    own),
    rotates to generation [seq+1], and queues that buffer slice on a
    {!Bqueue} for a background writer thread — the loop never
    blocks on checkpoint I/O.  The writer CRCs the slice, puts the
    header in front and writes the file.  {!close} closes that queue
    and joins the writer, which first writes every snapshot still
    queued.  The two newest checkpoint generations are kept; older
    files are pruned only after a newer snapshot is durably renamed,
    so {!recover} can always fall back one generation: newest valid
    checkpoint ⊕ replay of every following WAL, with a torn or corrupt
    tail treated as a clean truncation, never a crash.

    {!start} begins by writing a fresh synchronous checkpoint of the
    index it is given, so a recovered state is made durable (and old
    generations prunable) before the server accepts traffic.  Every
    durable launch pays that encode, CRC, write and fsync before it
    listens: at XMark scale 2000 a 1.63 MB body (4.63 MB as text), in
    11–18 ms on the 2-vCPU reference host (25–42 ms as text). *)

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
  load_ms : float;  (** reading, checking and decoding checkpoints, fallbacks included *)
  replay_ms : float;  (** replaying the WAL chain on top of the loaded checkpoint *)
}

val recover : ?read_faults:Faults.t -> dir:string -> unit -> recovery
(** Never raises on corrupt or torn files: it loads the newest
    checkpoint that {!body} accepts and that decodes, replays the
    longest valid prefix of each
    following WAL, and reports what it skipped.  A missing or empty
    directory yields [{ index = None; _ }].  [read_faults] filters
    every checkpoint and WAL read through {!Faults.read}: a flipped
    bit lands in the checkpoint or WAL CRC check (falling back /
    truncating), short reads and EINTR storms are absorbed. *)

val apply_mutation : Index_graph.t -> Wal.mutation -> Index_graph.t
(** Apply one logged mutation (the same code path replay uses, shared
    with the server so live application and recovery cannot diverge).
    Returns the index to use afterwards — subgraph addition and
    demotion replace it wholesale.
    @raise Failure on a semantically invalid mutation. *)

(** {1 Live manager} *)

type t

val start :
  ?wal_faults:Faults.t -> ?checkpoint_faults:Faults.t -> ?replica:bool -> ?recovery:recovery ->
  config -> Index_graph.t -> t
(** Write a fresh synchronous checkpoint of [index] at the next
    generation (encoded once, CRC'd and written in place), open its
    WAL, and spawn the background checkpoint writer.  [recovery] is carried into {!stats}.
    With [~replica:true] and no recovered index, [index] is a
    placeholder the replica serves (refusing reads) until its first
    snapshot install: no checkpoint is written for it, and the first
    install is the replica's first checkpoint.  A replica that
    promotes first checkpoints before it takes a write.
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

val install : t -> string -> (unit, string) result
(** Synchronous rotate, writing checkpoint file [file] verbatim: a
    replica keeps the file its primary shipped instead of re-encoding
    what it decoded from it. *)

val read_only : t -> bool
val note_wal_failure : t -> string -> unit
(** Flip to read-only and record the error for {!stats}. *)

val stats : t -> (string * string) list
(** WAL/checkpoint/recovery counters.  Persistence stage
    times: [checkpoint_last_encode_us] (the
    {!Index_serial.encode_compact} of the newest checkpoint),
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
    any thread.  The offset only ever covers complete records, so a
    tailer reading up to it never ships a torn record of its own
    making. *)

val wal_file : dir:string -> seq:int -> string
(** Path of generation [seq]'s WAL file. *)

(** {1 Scrubber hooks} *)

val checkpoint_file : dir:string -> seq:int -> string
(** Path of generation [seq]'s checkpoint file. *)

val checkpoint_seqs : string -> int list
val wal_seqs : string -> int list
(** Generations present in a data directory, increasing. *)

val seq_of : string -> prefix:string -> suffix:string -> int option
(** The generation in a file name [<prefix><seq><suffix>], if the name
    has that shape. *)

val body : ?generation:string * int -> string -> (string, string) result
(** The index body of checkpoint file contents [file] (compact, or a
    text document in a file written before the compact body), if its
    header line matches it; [Error reason] otherwise.  With
    [generation = (dir, seq)], where [file] was read from, a file
    without the header gets the pre-header rule (sidecar, else parse);
    without [generation] it is refused. *)

val fsync_dir : string -> unit
(** Best-effort directory fsync, making renames/unlinks durable. *)

val newest_checkpoint : dir:string -> (int * string) option
(** Newest checkpoint generation that {!body} accepts, as file bytes
    with the header (a pre-header generation is given one): what a
    bootstrap ships.  Nothing is decoded.  [None] if none checks. *)

val close : t -> Index_graph.t -> (unit, string) result
(** Final synchronous checkpoint (if the WAL holds records), then
    close the writer's queue and join the writer once it has written
    every queued snapshot, then close the WAL.  [Error] carries the
    reason the final snapshot could not be written. *)
