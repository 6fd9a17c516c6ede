open Dkindex_graph
open Dkindex_core

type config = {
  dir : string;
  sync : Wal.sync_policy;
  checkpoint_records : int;
  checkpoint_bytes : int;
  checkpoint_interval_s : float;
}

let default_config ~dir =
  {
    dir;
    sync = Wal.Interval 64;
    checkpoint_records = 4096;
    checkpoint_bytes = 8 * 1024 * 1024;
    checkpoint_interval_s = 60.0;
  }

(* ------------------------------------------------------------------ *)
(* File naming *)

let cp_name seq = Printf.sprintf "checkpoint-%09d.index" seq
let crc_name seq = Printf.sprintf "checkpoint-%09d.crc" seq
let wal_name seq = Printf.sprintf "wal-%09d.log" seq

let seq_of name ~prefix ~suffix =
  let pl = String.length prefix and sl = String.length suffix in
  let n = String.length name in
  if n > pl + sl && String.starts_with ~prefix name && String.ends_with ~suffix name then
    int_of_string_opt (String.sub name pl (n - pl - sl))
  else None

let list_seqs dir ~prefix ~suffix =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun n -> seq_of n ~prefix ~suffix)
    |> List.sort_uniq compare

let checkpoint_seqs dir = list_seqs dir ~prefix:"checkpoint-" ~suffix:".index"
let wal_seqs dir = list_seqs dir ~prefix:"wal-" ~suffix:".log"
let checkpoint_file ~dir ~seq = Filename.concat dir (cp_name seq)
let crc_file ~dir ~seq = Filename.concat dir (crc_name seq)

(* Checkpoint CRC sidecar: "crc32 length\n" of the snapshot bytes.
   The text snapshot format has per-line structure but no whole-file
   check of its own, so a flipped digit can still parse; the sidecar
   closes that hole for both recovery and the scrubber.  A checkpoint
   without a sidecar (crash between the two writes, or a pre-sidecar
   generation) is accepted as-is. *)
let sidecar_of { Index_serial.bytes; off; len } =
  Printf.sprintf "%d %d\n" (Crc32.update 0 bytes off len) len

(* [Ok true] = sidecar present and matching, [Ok false] = no sidecar,
   [Error reason] = sidecar present and contradicting the payload. *)
let check_sidecar ~dir ~seq s =
  match In_channel.with_open_bin (crc_file ~dir ~seq) In_channel.input_all with
  | exception Sys_error _ -> Ok false
  | raw -> (
    match String.split_on_char ' ' (String.trim raw) with
    | [ crc; len ] -> (
      match (int_of_string_opt crc, int_of_string_opt len) with
      | Some crc, Some len ->
        if len <> String.length s then
          Error (Printf.sprintf "length %d, sidecar says %d" (String.length s) len)
        else if crc <> Crc32.string s 0 len then Error "crc mismatch"
        else Ok true
      | _ -> Error "unparsable sidecar")
    | _ -> Error "unparsable sidecar")

(* ------------------------------------------------------------------ *)
(* Atomic snapshot write: tmp in the same directory, fsync, rename,
   fsync the directory so the rename itself is durable. *)

let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write_atomic ?faults dir name b off len =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let final = Filename.concat dir name in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  (try
     Faults.write_all faults fd b off len;
     Faults.fsync faults fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp final;
  fsync_dir dir

(* Keep the two newest checkpoint generations and every WAL from the
   older kept generation on; delete the rest.  Pruning runs only after
   a newer snapshot is durably in place, so a reader can always fall
   back one generation with a complete WAL chain.  It leaves .tmp files
   alone: the background writer, a synchronous checkpoint and the
   epoch file may each have one in flight (see [sweep_tmp]). *)
let prune dir =
  let removed = ref false in
  let rm name =
    try
      Sys.remove (Filename.concat dir name);
      removed := true
    with Sys_error _ -> ()
  in
  (match List.rev (checkpoint_seqs dir) with
  | _newest :: prev :: rest ->
    List.iter
      (fun s ->
        rm (cp_name s);
        rm (crc_name s))
      rest;
    List.iter (fun s -> if s < prev then rm (wal_name s)) (wal_seqs dir)
  | _ -> ());
  (* Make the unlinks themselves durable: without this a crash here
     can resurrect a pruned generation, and recovery could then load a
     checkpoint whose WAL chain was already (durably) deleted. *)
  if !removed then fsync_dir dir

(* Delete the .tmp files a crash left behind mid-[write_atomic].  Only
   safe while nothing else writes into [dir]: {!start} runs it before
   its writer domain exists. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun n ->
        if Filename.check_suffix n ".tmp" then
          try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      names

(* ------------------------------------------------------------------ *)
(* Replay *)

let apply_mutation idx (m : Wal.mutation) =
  let g = Index_graph.data idx in
  let check_node id what =
    if id < 0 || id >= Data_graph.n_nodes g then
      failwith (Printf.sprintf "%s node %d out of range" what id)
  in
  match m with
  | Wal.Add_edge { u; v } ->
    check_node u "source";
    check_node v "target";
    Dk_update.add_edge idx u v;
    idx
  | Wal.Remove_edge { u; v } ->
    check_node u "source";
    check_node v "target";
    Dk_update.remove_edge idx u v;
    idx
  | Wal.Add_subgraph { graph; reqs } ->
    let h = Serial.of_string graph in
    let _g', idx' = Dk_update.add_subgraph idx h ~reqs in
    idx'
  | Wal.Promote [] ->
    Dk_tune.promote_to_requirements idx;
    idx
  | Wal.Promote pairs ->
    Dk_tune.promote_labels idx pairs;
    idx
  | Wal.Demote reqs -> Dk_tune.demote idx ~reqs

type recovery = {
  index : Index_graph.t option;
  checkpoint_seq : int;
  replayed_records : int;
  torn_bytes : int;
  fallback_checkpoints : int;
  replay_errors : int;
  load_ms : float;
  replay_ms : float;
}

let empty_recovery =
  {
    index = None;
    checkpoint_seq = -1;
    replayed_records = 0;
    torn_bytes = 0;
    fallback_checkpoints = 0;
    replay_errors = 0;
    load_ms = 0.0;
    replay_ms = 0.0;
  }

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.0

let recover ?read_faults ~dir () =
  let t0 = Unix.gettimeofday () in
  let cps = List.rev (checkpoint_seqs dir) (* newest first *) in
  let rec load cps skipped =
    match cps with
    | [] -> if skipped > 0 then Some (None, -1, skipped) else None
    | seq :: older -> (
      match
        let s = Faults.read_all read_faults (Filename.concat dir (cp_name seq)) in
        match check_sidecar ~dir ~seq s with
        | Ok _ -> Index_serial.of_string s
        | Error reason -> failwith ("checkpoint sidecar: " ^ reason)
      with
      | idx -> Some (Some idx, seq, skipped)
      | exception _ -> load older (skipped + 1))
  in
  match load cps 0 with
  | None -> empty_recovery
  | Some (base, seq, fallback_checkpoints) ->
    let load_ms = ms_since t0 in
    let t1 = Unix.gettimeofday () in
    let replayed = ref 0 and torn = ref 0 and errors = ref 0 in
    let idx = ref base in
    (match base with
    | None -> ()
    | Some _ ->
      (* Replay the contiguous WAL chain from the loaded generation
         on.  Each file's torn tail is a truncation point; a record
         that fails to re-apply stops replay (it cannot be skipped —
         later records assume its effect). *)
      let wals = List.filter (fun s -> s >= seq) (wal_seqs dir) in
      let rec chain expected = function
        | s :: rest when s = expected ->
          let r = Wal.replay ?faults:read_faults (Filename.concat dir (wal_name s)) in
          torn := !torn + r.Wal.torn_bytes;
          let ok =
            List.for_all
              (fun m ->
                match !idx with
                | None -> false
                | Some i -> (
                  match apply_mutation i m with
                  | i' ->
                    idx := Some i';
                    incr replayed;
                    true
                  | exception _ ->
                    incr errors;
                    false))
              r.Wal.mutations
          in
          if ok then chain (expected + 1) rest
        | _ -> ()
      in
      chain seq wals);
    {
      index = !idx;
      checkpoint_seq = seq;
      replayed_records = !replayed;
      torn_bytes = !torn;
      fallback_checkpoints;
      replay_errors = !errors;
      load_ms;
      replay_ms = ms_since t1;
    }

(* ------------------------------------------------------------------ *)
(* Live manager *)

type t = {
  cfg : config;
  wal_faults : Faults.t option;
  cp_faults : Faults.t option;
  recovery : recovery;
  mutable wal : Wal.t;
  mutable seq : int;
  (* Mirror of [seq] readable from other domains (the replication hub
     tails the WAL files from its own senders).  Updated last on
     rotation, so (read seq_a, then wal_bytes_a) never claims bytes
     beyond the complete records of the generation it names. *)
  seq_a : int Atomic.t;
  mutable last_rotate : float;
  (* background writer: (generation, snapshot) to write; unbounded,
     so the mutator never waits on checkpoint I/O *)
  jobs : (int * Index_serial.slice) Bqueue.t;
  writer : unit Domain.t option ref;
  (* counters, read by stats from any domain *)
  read_only_flag : bool Atomic.t;
  wal_error : string ref;
  err_mu : Mutex.t;
  wal_records_a : int Atomic.t;
  wal_bytes_a : int Atomic.t;
  checkpoints_written : int Atomic.t;
  checkpoint_failures : int Atomic.t;
  checkpoint_last_bytes : int Atomic.t;
  checkpoint_last_encode_us : int Atomic.t;
}

let read_only t = Atomic.get t.read_only_flag

let note_wal_failure t msg =
  Mutex.lock t.err_mu;
  t.wal_error := msg;
  Mutex.unlock t.err_mu;
  Atomic.set t.read_only_flag true

(* The snapshot text, timed for [stats] on whichever domain takes it. *)
let encode t index =
  let t0 = Unix.gettimeofday () in
  let s = Index_serial.encode index in
  Atomic.set t.checkpoint_last_encode_us
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  s

(* The snapshot is written and CRC'd where the encoder left it. *)
let write_checkpoint t seq ({ Index_serial.bytes; off; len } as s) =
  write_atomic ?faults:t.cp_faults t.cfg.dir (cp_name seq) bytes off len;
  let side = sidecar_of s in
  write_atomic ?faults:t.cp_faults t.cfg.dir (crc_name seq) (Bytes.unsafe_of_string side) 0
    (String.length side);
  Atomic.incr t.checkpoints_written;
  Atomic.set t.checkpoint_last_bytes len;
  prune t.cfg.dir

let writer_loop t () =
  let rec go () =
    match Bqueue.pop t.jobs with
    | None -> ()
    | Some (seq, s) ->
      (try write_checkpoint t seq s
       with _ -> Atomic.incr t.checkpoint_failures);
      go ()
  in
  go ()

let start ?wal_faults ?checkpoint_faults ?recovery cfg index =
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ());
  sweep_tmp cfg.dir;
  let existing =
    match (checkpoint_seqs cfg.dir, wal_seqs cfg.dir) with
    | [], [] -> -1
    | cs, ws -> List.fold_left max (-1) (cs @ ws)
  in
  let seq = existing + 1 in
  let t =
    {
      cfg;
      wal_faults;
      cp_faults = checkpoint_faults;
      recovery = (match recovery with Some r -> r | None -> empty_recovery);
      wal = Wal.create ?faults:wal_faults ~sync:cfg.sync (Filename.concat cfg.dir (wal_name seq));
      seq;
      seq_a = Atomic.make seq;
      last_rotate = Unix.gettimeofday ();
      jobs = Bqueue.create max_int;
      writer = ref None;
      read_only_flag = Atomic.make false;
      wal_error = ref "";
      err_mu = Mutex.create ();
      wal_records_a = Atomic.make 0;
      wal_bytes_a = Atomic.make 0;
      checkpoints_written = Atomic.make 0;
      checkpoint_failures = Atomic.make 0;
      checkpoint_last_bytes = Atomic.make 0;
      checkpoint_last_encode_us = Atomic.make 0;
    }
  in
  (* The recovered (or initial) state becomes durable before the
     server accepts traffic; this is also what licenses pruning the
     generation we just recovered from. *)
  write_checkpoint t seq (encode t index);
  t.writer := Some (Domain.spawn (writer_loop t));
  t

let log_mutation t m =
  Wal.append t.wal m;
  Atomic.set t.wal_records_a (Wal.records t.wal);
  Atomic.set t.wal_bytes_a (Wal.bytes t.wal)

(* Rotate to the next generation: open the new WAL first (if that
   fails we still have the old one and degrade to read-only), then
   retire the old log.  Returns the snapshot to write at the new
   generation, or None if rotation failed. *)
let rotate t index =
  let s = encode t index in
  let seq' = t.seq + 1 in
  match Wal.create ?faults:t.wal_faults ~sync:t.cfg.sync (Filename.concat t.cfg.dir (wal_name seq')) with
  | exception e ->
    note_wal_failure t ("wal rotation: " ^ Printexc.to_string e);
    None
  | wal' ->
    Wal.close t.wal;
    t.wal <- wal';
    t.seq <- seq';
    t.last_rotate <- Unix.gettimeofday ();
    Atomic.set t.wal_records_a 0;
    Atomic.set t.wal_bytes_a 0;
    Atomic.set t.seq_a seq';
    Some (seq', s)

let triggered t =
  let records = Wal.records t.wal and bytes = Wal.bytes t.wal in
  records > 0
  && ((t.cfg.checkpoint_records > 0 && records >= t.cfg.checkpoint_records)
     || (t.cfg.checkpoint_bytes > 0 && bytes >= t.cfg.checkpoint_bytes)
     || (t.cfg.checkpoint_interval_s > 0.0
        && Unix.gettimeofday () -. t.last_rotate >= t.cfg.checkpoint_interval_s))

let maybe_checkpoint t index =
  if (not (read_only t)) && triggered t then
    match rotate t index with
    | Some job -> Bqueue.push t.jobs job
    | None -> ()

let checkpoint_now t index =
  if read_only t then Error "read-only: wal unwritable"
  else
    match rotate t index with
    | None -> Error "wal rotation failed"
    | Some (seq, s) -> (
      match write_checkpoint t seq s with
      | () -> Ok ()
      | exception e ->
        Atomic.incr t.checkpoint_failures;
        Error (Printexc.to_string e))

let dir t = t.cfg.dir
let wal_file ~dir ~seq = Filename.concat dir (wal_name seq)

(* Domain-safe current WAL position.  Only complete records are ever
   claimed: wal_bytes_a is bumped after the append returns, and seq_a
   flips to a new generation only after its byte counter was reset. *)
let wal_position t =
  let seq = Atomic.get t.seq_a in
  let bytes = Atomic.get t.wal_bytes_a in
  (seq, bytes)

let read_file ?faults path = Faults.read_all faults path

(* Newest checkpoint that actually parses, as raw snapshot bytes (for
   replica bootstrap).  Racing the pruner just skips to an older one. *)
let newest_checkpoint ~dir =
  let rec go = function
    | [] -> None
    | seq :: older -> (
      match
        let s = read_file (Filename.concat dir (cp_name seq)) in
        (match check_sidecar ~dir ~seq s with
        | Ok _ -> ()
        | Error reason -> failwith reason);
        ignore (Index_serial.of_string s);
        s
      with
      | s -> Some (seq, s)
      | exception _ -> go older)
  in
  go (List.rev (checkpoint_seqs dir))

let stats t =
  let b v = if v then "true" else "false" in
  let err =
    Mutex.lock t.err_mu;
    let e = !(t.wal_error) in
    Mutex.unlock t.err_mu;
    e
  in
  [
    ("wal_seq", string_of_int t.seq);
    ("wal_records", string_of_int (Atomic.get t.wal_records_a));
    ("wal_bytes", string_of_int (Atomic.get t.wal_bytes_a));
    ("wal_sync", Wal.sync_policy_to_string t.cfg.sync);
    ("read_only", b (read_only t));
    ("wal_error", err);
    ("checkpoints_written", string_of_int (Atomic.get t.checkpoints_written));
    ("checkpoint_failures", string_of_int (Atomic.get t.checkpoint_failures));
    ("checkpoint_last_bytes", string_of_int (Atomic.get t.checkpoint_last_bytes));
    ("checkpoint_last_encode_us", string_of_int (Atomic.get t.checkpoint_last_encode_us));
    ("recovery_checkpoint_seq", string_of_int t.recovery.checkpoint_seq);
    ("recovery_replayed_records", string_of_int t.recovery.replayed_records);
    ("recovery_torn_bytes", string_of_int t.recovery.torn_bytes);
    ("recovery_fallback_checkpoints", string_of_int t.recovery.fallback_checkpoints);
    ("recovery_replay_errors", string_of_int t.recovery.replay_errors);
    ("recovery_load_ms", Printf.sprintf "%.3f" t.recovery.load_ms);
    ("recovery_replay_ms", Printf.sprintf "%.3f" t.recovery.replay_ms);
  ]

let close t index =
  let final =
    if Wal.records t.wal = 0 then Ok ()
    else if read_only t then
      (* The WAL is dead but its synced prefix is on disk; recovery
         will replay it.  Nothing more we can safely persist. *)
      Ok ()
    else checkpoint_now t index
  in
  (* Closing drains: the writer finishes every queued snapshot first. *)
  Bqueue.close t.jobs;
  (match !(t.writer) with
  | Some d ->
    Domain.join d;
    t.writer := None
  | None -> ());
  Wal.close t.wal;
  final
