(* dkindex-server: serve a D(k)-index over TCP (the dkserve wire
   protocol).  The index comes from a saved snapshot (--load) or is
   built from the pinned deterministic XMark dataset (--xmark SCALE),
   which is what dkindex-loadgen's check mode reconstructs locally. *)

open Cmdliner
module Server = Dkindex_server.Server
module Checkpoint = Dkindex_server.Checkpoint
module Replication = Dkindex_server.Replication
module Wal = Dkindex_server.Wal
module Index_serial = Dkindex_core.Index_serial

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address (numeric)")

let port_arg =
  Arg.(value & opt int 7411 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Port (0 = ephemeral)")

let xmark_arg =
  Arg.(
    value & opt int 40
    & info [ "xmark" ] ~docv:"SCALE" ~doc:"Serve the pinned XMark dataset at this scale")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Dataset seed")

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Serve a saved index (a --snapshot file or a text export) instead of --xmark")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"1"
        ~doc:
          "Accepted for compatibility and must be 1: the event loop answers every read and \
           applies every write, so there are no worker domains")

let queue_arg =
  Arg.(value & opt int 256 & info [ "queue-depth" ] ~docv:"N" ~doc:"Bound before shedding")

let deadline_arg =
  Arg.(
    value & opt float 10.0
    & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-request deadline (<= 0 disables)")

let idle_arg =
  Arg.(
    value & opt float 60.0
    & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc:"Close idle connections (<= 0 disables)")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Snapshot target, written as the compact index body (Snapshot requests and the \
           final drain write here)")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Durability directory: write-ahead log + periodic checkpoints.  On startup the \
           newest valid checkpoint is loaded and the log replayed, so a killed server \
           restarts from its acknowledged state; --load/--xmark then only seed an empty \
           directory.")

let sync_arg =
  Arg.(
    value & opt string "interval:64"
    & info [ "sync" ] ~docv:"POLICY"
        ~doc:"WAL fsync policy: always, never, or interval[:N] (fsync every N records)")

let checkpoint_every_arg =
  Arg.(
    value & opt int 4096
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint and truncate the WAL after N logged records (or 8 MiB of log)")

let replicate_from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replicate-from" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a replica of this primary: tail its write-ahead log (bootstrapping from a \
           snapshot when needed), refuse writes with not-primary, and serve reads within the \
           staleness bound.  A replica starts empty unless its own --data-dir has state.")

let replica_id_arg =
  Arg.(
    value & opt int 1
    & info [ "replica-id" ] ~docv:"N" ~doc:"Replica identity reported to the primary")

let auto_promote_arg =
  Arg.(
    value & flag
    & info [ "auto-promote" ]
        ~doc:
          "Promote this replica to primary automatically when the primary has been silent past \
           the failover timeout (requires at least one successful contact first)")

let failover_arg =
  Arg.(
    value & opt float 3.0
    & info [ "failover-timeout" ] ~docv:"SECONDS"
        ~doc:"No contact for this long = primary presumed dead (<= 0 disables the watchdog)")

let staleness_arg =
  Arg.(
    value & opt float 10.0
    & info [ "staleness-bound" ] ~docv:"SECONDS"
        ~doc:"Refuse reads once the primary has been silent this long (<= 0 disables)")

let heartbeat_arg =
  Arg.(
    value & opt float 0.25
    & info [ "heartbeat" ] ~docv:"SECONDS" ~doc:"Replication heartbeat interval (primary side)")

let max_conns_arg =
  Arg.(
    value & opt int 0
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Admission control: once N connections are live, new ones are answered with one \
           Overloaded frame and closed (<= 0 disables)")

let read_progress_arg =
  Arg.(
    value & opt float 0.0
    & info [ "read-progress-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Slow-loris defense: a started frame must arrive completely within this window or \
           the connection is evicted (<= 0 disables)")

let scrub_interval_arg =
  Arg.(
    value & opt float 0.0
    & info [ "scrub-interval" ] ~docv:"SECONDS"
        ~doc:
          "Background integrity scrub: every interval, re-read and verify all at-rest state \
           in --data-dir (checkpoints against their CRC header lines, sealed WAL segments), \
           quarantining corrupt files after re-checkpointing from the live index (<= 0 \
           disables; needs --data-dir)")

let scrub_rate_arg =
  Arg.(
    value & opt int 0
    & info [ "scrub-rate" ] ~docv:"BYTES_PER_S"
        ~doc:"Bound the scrub read rate — it shares a disk with the WAL (<= 0 unlimited)")

let anti_entropy_arg =
  Arg.(
    value & opt float 0.0
    & info [ "anti-entropy-interval" ] ~docv:"SECONDS"
        ~doc:
          "Replica anti-entropy: every interval, compare the root integrity digest with the \
           primary's when both are at the same write-stream position; the third mismatch at \
           equal positions (a match resets the count) resyncs a snapshot from the primary \
           (<= 0 disables; needs --replicate-from)")

(* A replica that has no local state serves this until its first
   snapshot bootstrap replaces it: a one-node ROOT-only index, never
   checkpointed ([Checkpoint.start ~replica]). *)
let empty_index () =
  let pool = Dkindex_graph.Label.Pool.create () in
  let root = Dkindex_graph.Label.Pool.intern pool Dkindex_graph.Label.root_name in
  let g = Dkindex_graph.Data_graph.make ~pool ~labels:[| root |] ~edges:[] () in
  Dkindex_core.Dk_index.build g ~reqs:[]

let serve host port xmark seed load workers queue_depth deadline idle snapshot data_dir sync
    checkpoint_every replicate_from replica_id auto_promote failover_timeout staleness_bound
    heartbeat max_conns read_progress_deadline scrub_interval scrub_rate anti_entropy_interval =
  let fatal fmt = Printf.ksprintf (fun m -> prerr_endline ("dkindex-server: " ^ m); exit 1) fmt in
  if workers <> 1 then
    fatal "--workers %d: must be 1 (the event loop answers every request; no worker domains)"
      workers;
  let sync =
    match Wal.sync_policy_of_string sync with Ok s -> s | Error msg -> fatal "%s" msg
  in
  let replica_of =
    match replicate_from with
    | None -> None
    | Some spec -> (
      match String.rindex_opt spec ':' with
      | None -> fatal "--replicate-from wants HOST:PORT, got %s" spec
      | Some i -> (
        let h = String.sub spec 0 i
        and p = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt p with
        | None -> fatal "--replicate-from: bad port %s" p
        | Some p ->
          Some
            {
              (Replication.default_rconfig ~host:h ~port:p ~replica_id) with
              auto_promote;
              failover_timeout_s = failover_timeout;
              staleness_bound_s = staleness_bound;
            }))
  in
  let serving_gc = Gc.get () in
  (* The launch stages build the graph and the index, and keep almost
     everything they allocate: the major collector's work there is mostly
     marking live data.  They run with a lazier major collector (slices
     paced for 1000% space overhead, and the CSR bigarrays counted at
     1000% of their size), and [serve] puts the defaults back before the
     server starts, so serving runs on them.  At XMark scale 2000 this
     cuts a plain launch's collections from 12 minor and 10 major to 7
     and 4, and its time to listening by about 9 ms, for 3.7 MB more
     peak RSS.  A constant, not an option. *)
  Gc.set { serving_gc with space_overhead = 1000; custom_major_ratio = 1000 };
  let launch = Server.launch () in
  let stage st f = Server.stage launch st f in
  let build () =
    match (load, replica_of) with
    | Some file, _ ->
      Printf.printf "dkindex-server: loading %s\n%!" file;
      stage Datagen (fun () -> Index_serial.load file)
    | None, Some _ ->
      (* A replica bootstraps over the wire; don't build a dataset it
         will immediately throw away. *)
      Printf.printf "dkindex-server: starting empty, awaiting replication bootstrap\n%!";
      empty_index ()
    | None, None ->
      Printf.printf "dkindex-server: building pinned XMark dataset (scale %d, seed %d)\n%!"
        xmark seed;
      let g = stage Datagen (fun () -> Dkindex_datagen.Xmark.graph ~seed ~scale:xmark ()) in
      stage Index_build (fun () -> Dkindex_server.Dataset.build g)
  in
  let index, durability =
    match data_dir with
    | None -> (build (), None)
    | Some dir ->
      let recovery = stage Recover (fun () -> Checkpoint.recover ~dir ()) in
      let index =
        match recovery.Checkpoint.index with
        | Some idx ->
          Printf.printf
            "dkindex-server: recovered from %s (checkpoint %d, %d WAL records replayed%s)\n%!"
            dir recovery.checkpoint_seq recovery.replayed_records
            (if recovery.torn_bytes > 0 then
               Printf.sprintf ", %d torn bytes truncated" recovery.torn_bytes
             else "");
          idx
        | None -> build ()
      in
      let cfg =
        {
          (Checkpoint.default_config ~dir) with
          sync;
          checkpoint_records = checkpoint_every;
        }
      in
      let replica = Option.is_some replica_of in
      (index, Some (stage Checkpoint (fun () -> Checkpoint.start ~replica ~recovery cfg index)))
  in
  let cfg =
    {
      Server.host;
      port;
      queue_depth;
      deadline_s = deadline;
      idle_timeout_s = idle;
      max_frame = Dkindex_server.Wire.max_frame_default;
      snapshot_path = snapshot;
      max_conns;
      read_progress_deadline_s = read_progress_deadline;
      scrub_interval_s = scrub_interval;
      scrub_max_bytes_per_s = scrub_rate;
      anti_entropy_interval_s = anti_entropy_interval;
    }
  in
  (match data_dir with
  | Some dir ->
    Printf.printf "dkindex-server: role %s, epoch %d\n%!"
      (if replica_of = None then "primary" else "replica")
      (Replication.load_epoch ~dir)
  | None ->
    if replica_of <> None then Printf.printf "dkindex-server: role replica (no data dir)\n%!");
  Gc.set serving_gc;
  match
    Server.run
      ~on_ready:(fun port ->
        Printf.printf "dkindex-server: listening on %s:%d (pid %d)\n%!" host port
          (Unix.getpid ()))
      ?durability ?replica_of ~hub_heartbeat_s:heartbeat ~launch cfg index
  with
  | Ok () -> Printf.printf "dkindex-server: drained, bye\n%!"
  | Error msg -> fatal "shutdown failed: %s" msg

let cmd =
  let doc = "serve a D(k)-index over TCP (dkserve protocol)" in
  Cmd.v
    (Cmd.info "dkindex-server" ~doc)
    Term.(
      const serve $ host_arg $ port_arg $ xmark_arg $ seed_arg $ load_arg $ workers_arg
      $ queue_arg $ deadline_arg $ idle_arg $ snapshot_arg $ data_dir_arg $ sync_arg
      $ checkpoint_every_arg $ replicate_from_arg $ replica_id_arg $ auto_promote_arg
      $ failover_arg $ staleness_arg $ heartbeat_arg $ max_conns_arg $ read_progress_arg
      $ scrub_interval_arg $ scrub_rate_arg $ anti_entropy_arg)

let () = exit (Cmd.eval cmd)
