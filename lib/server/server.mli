(** dkserve: the D(k)-index query/update server.

    Threading model ("one loop, one index copy"):
    - the thread that calls {!run} runs an {!Evloop} (a poll(2)
      readiness loop, not a fixed select tick): it accepts,
      accumulates bytes, decodes frames in place from the connection
      buffer, and answers {e every} read (ping, query-path, planned
      query, explain, has-edge, stats) itself against the one serving
      index, with one {!Dkindex_core.Validation_cache} and one
      planner, whose statistics catalog also supplies [Stats]' index
      keys (a planned read with [no_cache] just runs without the
      cache);
    - writes go into a bounded job list, each with its arrival time,
      and the loop applies them in FIFO order, in place
      ({!Dkindex_core.Dk_update} and friends), after it has decoded
      the whole frame batch.  Replication events and the integrity
      thread's digest and checkpoint jobs (closures) reach the index
      through the same list, so the index needs no lock and a read
      never sees a half-applied write;
    - blocking I/O runs on systhreads, never domains: the
      {!Checkpoint} file writer, one {!Replication} sender per
      subscriber, the replica tailer, and the integrity thread (scrub
      reads, anti-entropy).  A plain launch runs one thread of OCaml
      code, and [Unix.fork] still works after an in-process server.

    Responses carry the request id.  A connection's reads are
    answered in send order, as are its writes; a read decoded in the
    same frame batch as an earlier write is answered before the write
    is applied, so a pipelining client correlates by id.

    Overload and failure semantics:
    - a full job list sheds the write with {!Wire.Overloaded};
    - a write older than [deadline_s] when the loop reaches it is
      answered with [`Deadline] instead of being applied;
    - a write that fails is answered [`App] and leaves the index as it
      was: every rejection the mutation path knows raises before it
      changes anything;
    - a malformed payload in a well-formed frame gets [`Protocol] and
      the connection survives; an oversized frame closes it;
    - connections idle longer than [idle_timeout_s] are closed;
    - SIGTERM/SIGINT (or a {!Wire.Shutdown} request) starts a graceful
      drain: stop accepting and reading, close the job list and apply
      everything admitted before it closed (so every in-flight write is
      answered), then join the replica tailer and the integrity thread.
      Then close every connection and write a final
      snapshot/checkpoint — a failure there (disk full, say) is
      reported as [Error _], never raised through the drain.

    Durability: pass [?durability] (a running {!Checkpoint.t}) and the
    loop logs (and, per the sync policy, syncs) every applied mutation
    to the write-ahead log before acknowledging it, takes periodic
    checkpoints, and — should the WAL
    become unwritable — degrades to read-only: mutations are refused
    with {!Wire.Read_only} while queries keep working.  Shutdown then
    writes a final checkpoint and closes the log.

    Replication: a durable primary automatically runs a
    {!Replication.hub}; replicas subscribe with {!Wire.Rep_subscribe}
    (the connection is detached and handed to a dedicated sender
    thread) and receive snapshot bootstraps, WAL chunks, and
    heartbeats.  Pass [?replica_of] and the server starts as a
    {e replica} instead: a tailer thread streams from the primary and
    feeds decoded mutations through the same job list client writes
    use; writes are refused with {!Wire.Not_primary}, and reads
    are refused with [`Stale] once the primary has been silent past
    the configured staleness bound.  {!Wire.Promote_primary} (or the
    failover watchdog, when [auto_promote] is set) bumps the persisted
    epoch and flips the replica into a primary in place.  A primary
    that observes a higher epoch in any {!Wire.Hello} or subscription
    fences itself: subsequent writes get {!Wire.Fenced} so a deposed
    primary cannot acknowledge into a lineage it no longer leads. *)

open Dkindex_core

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (reported via [on_ready]) *)
  queue_depth : int;  (** job-list bound before shedding *)
  deadline_s : float;  (** how long a write may wait in the job list; <= 0 disables *)
  idle_timeout_s : float;  (** idle-connection close; <= 0 disables *)
  max_frame : int;
  snapshot_path : string option;
      (** for {!Wire.Snapshot} and the final drain: the compact index
          body, which {!Dkindex_core.Index_serial.load} reads *)
  max_conns : int;
      (** admission control: once this many connections are live, new
          accepts are answered with one {!Wire.Overloaded} frame and
          closed (counted in [rejected_at_admission]); <= 0 disables *)
  read_progress_deadline_s : float;
      (** slow-loris defense: once the first byte of a frame arrives,
          the whole frame must arrive within this window or the
          connection is evicted (counted in [evicted_slow_clients]).
          The clock starts at the first byte of an incomplete frame
          and is {e not} refreshed by trickled bytes; <= 0 disables *)
  scrub_interval_s : float;
      (** background at-rest scrub cadence: every interval, the
          integrity thread re-reads the data directory (checkpoint
          files against their CRC header lines, sealed WAL segments)
          with {!Scrub},
          quarantines anything corrupt after re-checkpointing from the
          live index, and counts findings in
          [scrub_passes]/[scrub_corruptions_found].  Needs
          [durability]; <= 0 disables *)
  scrub_max_bytes_per_s : int;
      (** scrub read-rate bound (the scrubber shares a disk with the
          WAL); <= 0 unlimited *)
  anti_entropy_interval_s : float;
      (** replica-side anti-entropy cadence: every interval the replica
          fetches the primary's {!Integrity} root digest and compares it
          with its own when both are at the same write-stream position.
          The third mismatch at equal positions (a round at differing
          positions neither counts nor resets; a match resets) is a
          divergence, healed by a snapshot resync
          ({!Replication.force_resync}) — counted in
          [replica_divergences].  Only
          meaningful with [replica_of]; <= 0 disables *)
}

val default_config : config
(** 127.0.0.1:7411, depth 256, 10 s deadline, 60 s idle,
    {!Wire.max_frame_default}, no snapshot path, no connection budget,
    no read-progress deadline, no scrubbing, no anti-entropy. *)

(** {1 Launch stages} *)

type stage = Datagen | Index_build | Recover | Checkpoint | Prepare

type launch
(** The wall-clock time of a launch's stages.  [Stats] reports them as
    [launch_datagen_ms] (dataset generation or index load),
    [launch_index_build_ms], [launch_recover_ms],
    [launch_checkpoint_ms] (the initial checkpoint) and
    [launch_prepare_ms] ([Index_graph.prepare_serving], timed by
    {!run}); a stage the launch skipped reads 0.  Beside them, [Stats]
    reports what the process had collected and allocated when {!run}
    became ready, just before [on_ready]: [launch_minor_gcs] and
    [launch_major_gcs] (collections, from [Gc.quick_stat]) and
    [launch_alloc_words] (words allocated: [Gc.minor_words] plus
    direct major allocations).  They count from process start, so
    for dkindex-server they cover the whole launch. *)

val launch : unit -> launch
(** Start a launch's clock.  Passed to {!run}, it is also where
    [uptime_s] counts from, so the stages sum to at most the uptime. *)

val stage : launch -> stage -> (unit -> 'a) -> 'a
(** [stage l st f] runs [f] and adds its wall time to [st]'s. *)

val run :
  ?on_ready:(int -> unit) ->
  ?handle_signals:bool ->
  ?durability:Checkpoint.t ->
  ?replica_of:Replication.rconfig ->
  ?hub_faults:(int -> Faults.t option) ->
  ?hub_heartbeat_s:float ->
  ?repl_drop_nth:int ->
  ?read_faults:Faults.t ->
  ?launch:launch ->
  config ->
  Index_graph.t ->
  (unit, string) result
(** Serve [index] until shutdown; blocks.  [on_ready port] fires once
    the socket is bound and listening.  [handle_signals] (default
    [true]) installs SIGTERM/SIGINT handlers that trigger the graceful
    drain — pass [false] when embedding the server in a test or
    benchmark thread and stopping it with {!Wire.Shutdown}.
    [durability] enables WAL + checkpoint logging (see above); the
    caller builds it with {!Checkpoint.start}, typically from a
    {!Checkpoint.recover}ed state.  [replica_of] starts the server as
    a replica of the given primary (see above); [durability] is then
    the replica's own local log, used to survive its own restarts and
    to serve as a primary after promotion.  [hub_faults] injects
    {!Faults} into the replication sender for a given replica id
    (tests: partitions, torn streams, slow links); [hub_heartbeat_s]
    overrides the replication heartbeat interval.  [repl_drop_nth]
    (tests only) makes a replica silently skip the nth fresh record of
    its replication stream — divergence the stream itself cannot see,
    which is exactly what anti-entropy exists to catch.
    [read_faults] (tests) filters the scrubber's file reads through
    {!Faults.read_all}, so an injected read fault reaches a scrub pass
    as a disk fault would.  [launch]
    carries the stage times of the work done before [run] (default: a
    clock started by [run]).  Returns [Error _]
    if the final snapshot or checkpoint could not be written —
    connections are already cleaned up by then, so callers should log
    it and exit nonzero. *)
