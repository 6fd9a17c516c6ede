(** Primary/replica replication for dkserve: asynchronous WAL
    shipping, snapshot catch-up, heartbeats, and failover.

    {b Model.}  The primary acknowledges a write after applying it in
    memory and appending it to its local WAL (exactly as in single-node
    operation); replication is asynchronous — shipping happens after
    the ack, so a primary lost between ack and ship can lose the tail
    of acknowledged writes unless the operator waits for replicas to
    catch up (see [dkindex-loadgen --wait-replication]).  Each primary
    incarnation is identified by an {e epoch}; promotion bumps the
    epoch and persists it, and every client/replica carries the
    highest epoch it has observed in its {!Wire.Hello}, which is how a
    deposed primary learns of its demotion and fences itself.

    WAL positions are [(generation, byte offset)] pairs in the
    {e primary's} data directory and are only meaningful within one
    primary lineage (tracked as the [synced_epoch]); a replica whose
    position belongs to another lineage — or that asks for a
    generation the primary has pruned — is bootstrapped with a full
    {!Index_serial} snapshot. *)

(** {1 Epoch persistence} *)

val load_epoch : dir:string -> int
(** Epoch stored in [dir]'s [epoch] file; 0 when absent/unreadable. *)

val store_epoch : dir:string -> int -> unit
(** Durable atomic write of the epoch file ({!Checkpoint.write_atomic}:
    temp file, fsync, rename, directory fsync).
    @raise Unix.Unix_error if it cannot be made durable — the caller
    must then not act on the new epoch. *)

(** {1 Hub: the primary side} *)

type hub

val create_hub :
  ?faults_for:(int -> Faults.t option) ->
  ?heartbeat_s:float ->
  epoch:int Atomic.t ->
  Checkpoint.t ->
  hub
(** [epoch] is shared with the server (heartbeats and chunks carry the
    value current at send time).  [faults_for replica_id] lets tests
    inject partitions / torn streams / slow links per subscriber.
    Creating a hub spawns nothing; each {!attach} starts one sender
    thread.  Call {!attach}, {!hub_stats} and {!stop_hub} from one
    thread (dkserve's event loop). *)

val attach : hub -> fd:Unix.file_descr -> replica_id:int -> seq:int -> offset:int -> unit
(** Take ownership of [fd] (a connection the server has detached after
    a [Rep_subscribe]) and stream the WAL to it from [(seq, offset)],
    bootstrapping with a snapshot when the position is unknown
    ([seq = -1]), implausible, or pruned.  Each frame is encoded whole
    and written with {!Faults.write_all} (through the subscriber's
    injected faults, if any), so a replica that stops reading for 30 s
    is dropped.  The sender dies silently when the socket does; a
    reconnecting replica re-subscribes. *)

val hub_stats : hub -> (string * string) list
(** [replicas_connected] plus, per live replica,
    [replica.<id>.{epoch,wal_seq,wal_offset,bytes_behind,bootstraps}]. *)

val stop_hub : hub -> unit
(** Shut every subscriber socket and join the sender threads. *)

(** {1 Replica: the tailer side} *)

type rconfig = {
  primary_host : string;
  primary_port : int;
  replica_id : int;
  auto_promote : bool;
      (** push {!Ev_promote} when the failover timeout expires (only
          after at least one successful contact — a replica that never
          reached its primary refuses to promote an empty index) *)
  failover_timeout_s : float;  (** no contact for this long = primary presumed dead; <= 0 disables *)
  staleness_bound_s : float;
      (** reads are refused ([`Stale]) once the primary has been
          silent this long; <= 0 disables.  Reads are refused before
          the first snapshot install whatever this is. *)
}

val default_rconfig : host:string -> port:int -> replica_id:int -> rconfig
(** auto_promote false, failover 3 s, staleness bound 10 s. *)

(** Events handed to the server's event loop, in stream order. *)
type event =
  | Ev_snapshot of { checkpoint : string; epoch : int; seq : int }
      (** check ({!Checkpoint.body}) and install this checkpoint file;
          the stream continues from [(seq, 0)] *)
  | Ev_mutations of { records : (Wal.mutation * int) list; epoch : int; seq : int; offset : int }
      (** complete WAL records of generation [seq], each with the
          offset just past it, the last ending at [offset]; after a
          reconnect the same bytes can be delivered twice — the
          applier skips records at or below its applied position *)
  | Ev_promote  (** the failover watchdog fired (auto-promotion) *)

type replica

val create_replica : rconfig -> epoch:int Atomic.t -> max_seen:int Atomic.t -> replica
(** [epoch]/[max_seen] are shared with the server. *)

val start_replica : replica -> push:(event -> unit) -> unit
(** Start the tailer thread.  [push] must block, never shed (it feeds
    the server's job list). *)

val stop_replica : replica -> unit

val force_resync : replica -> unit
(** Drop the current stream (if any) and re-subscribe with [seq = -1],
    forcing a full snapshot bootstrap on the next session.  This is
    how anti-entropy heals a replica whose digest has diverged from
    its primary's, whatever the cause: the snapshot is a bit-identical
    copy of the primary's index, and its install is checkpointed. *)

val mark_promoted : replica -> unit
(** Called by the server once promotion completes; the tailer thread
    exits and reads stop being staleness-checked. *)

val is_promoted : replica -> bool

val note_applied : replica -> seq:int -> offset:int -> n:int -> unit
(** Apply-side bookkeeping: [n] records applied up to [(seq, offset)]. *)

val applied_position : replica -> int * int
(** Last applied [(generation, offset)]; [(-1, 0)] before any sync. *)

val note_installed : replica -> epoch:int -> seq:int -> ms:float -> unit
(** Apply-side bookkeeping: a snapshot of lineage [epoch] installed in
    [ms] (check, decode, install, write); applied position [(seq, 0)]. *)

val stale : replica -> bool
(** True when reads must be refused ([`Stale]): this process has not
    yet installed a snapshot (whatever the staleness bound), or the
    primary has been silent past the staleness bound.  Always false
    once promoted. *)

val contact_age_s : replica -> float option
(** Seconds since the primary was last heard from — the quantity
    {!stale} compares against the staleness bound, exported so reads
    can be stamped with the age of the data they were answered from.
    [None] before the first contact; [Some 0.] once promoted. *)

val rconfig_of : replica -> rconfig
val replica_stats : replica -> (string * string) list
(** [replication_*] keys: connection, positions, bytes behind, records
    applied, snapshots installed and the last one's install time,
    reconnects, contact age, staleness. *)
