(* Integrity tests: content-canonical roots that a one-edge divergence
   changes, the at-rest scrubber with quarantine, the digest wire
   exchange (the served root equals a local recompute after every write
   kind), and end-to-end anti-entropy: a replica that silently dropped
   a replicated record detects the divergence against the primary's
   root and heals by a snapshot resync, and one whose checkpoint rotted
   on disk re-checkpoints and stays converged.

   As in test_chaos, every server runs in a forked child process, and
   the parent drives plain blocking clients. *)

open Dkindex_core
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Wire = Dkindex_server.Wire
module Server = Dkindex_server.Server
module Client = Dkindex_server.Client
module Wal = Dkindex_server.Wal
module Checkpoint = Dkindex_server.Checkpoint
module Replication = Dkindex_server.Replication
module Faults = Dkindex_server.Faults
module Scrub = Dkindex_server.Scrub
module Integrity = Dkindex_server.Integrity
module Prng = Dkindex_datagen.Prng

let now () = Unix.gettimeofday ()

(* ----------------------------------------------------------------- *)
(* Scratch directories (recursive: quarantine/ subdirectories) *)

let temp_dir () =
  let path = Filename.temp_file "dkintegrity" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n ->
        let p = Filename.concat dir n in
        if (try Sys.is_directory p with Sys_error _ -> false) then rm_rf p
        else try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ----------------------------------------------------------------- *)
(* Deterministic base indexes *)

let build_base () =
  let g =
    Dkindex_datagen.Random_graph.graph ~seed:23 ~nodes:300 ~n_labels:5 ~extra_edges:120 ()
  in
  Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 3); ("l2", 2) ]

(* Big enough to span several digest ranges (1 lsl range_shift ids per
   range), so a divergence outside range 0 must still reach the root. *)
let build_wide () =
  let g =
    Dkindex_datagen.Random_graph.graph ~seed:29
      ~nodes:(3 * (1 lsl Integrity.range_shift))
      ~n_labels:6 ~extra_edges:1500 ()
  in
  Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 2) ]

let empty_index () =
  let pool = Label.Pool.create () in
  let root = Label.Pool.intern pool Label.root_name in
  let g = Data_graph.make ~pool ~labels:[| root |] ~edges:[] () in
  Dk_index.build g ~reqs:[]

(* Node pairs absent from the base graph, pairwise distinct. *)
let fresh_edges ~seed ~count =
  let g = Index_graph.data (build_base ()) in
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed in
  let seen = Hashtbl.create 64 in
  let rec pick () =
    let u = Prng.int rng n and v = Prng.int rng n in
    if u = v || Data_graph.has_edge g u v || Hashtbl.mem seen (u, v) then pick ()
    else begin
      Hashtbl.replace seen (u, v) ();
      (u, v)
    end
  in
  List.init count (fun _ -> pick ())

(* ----------------------------------------------------------------- *)
(* 1. Roots are content-canonical *)

let test_content_canonical () =
  let a = Integrity.compute_full (build_base ()) in
  let b = Integrity.compute_full (build_base ()) in
  Alcotest.(check bool) "independent builds digest identically" true (a = b);
  Alcotest.(check bool) "root is nonzero" true (a.Integrity.root <> 0);
  let c = Integrity.compute_full (empty_index ()) in
  Alcotest.(check bool) "different content, different root" true
    (a.Integrity.root <> c.Integrity.root);
  (* Anti-entropy compares roots only, so one edge in a later range
     must change it. *)
  let wide = build_wide () in
  let g = Index_graph.data wide in
  let u = (1 lsl Integrity.range_shift) + 137 in
  let v =
    let rec find v = if v <> u && not (Data_graph.has_edge g u v) then v else find (v + 1) in
    find 0
  in
  let before = Integrity.compute_full wide in
  let after = Integrity.compute_full (Checkpoint.apply_mutation wide (Wal.Add_edge { u; v })) in
  Alcotest.(check bool) "divergence shows in the root" true
    (before.Integrity.root <> after.Integrity.root)

(* ----------------------------------------------------------------- *)
(* 2. The scrubber: flips are found, torn tails are tolerated,
   quarantine moves the evidence aside. *)

(* A durable data directory: two checkpoint generations and their
   WALs.  [Checkpoint.start]'s writer is a systhread, so this runs in
   the test process, which keeps forking servers after it. *)
let populate_data_dir ~dir =
  let idx = ref (build_base ()) in
  let cfg = { (Checkpoint.default_config ~dir) with sync = Wal.Always } in
  let d = Checkpoint.start cfg !idx in
  let edges = fresh_edges ~seed:31 ~count:12 in
  List.iteri
    (fun i (u, v) ->
      let m = Wal.Add_edge { u; v } in
      idx := Checkpoint.apply_mutation !idx m;
      Checkpoint.log_mutation d m;
      if i = 5 then
        match Checkpoint.checkpoint_now d !idx with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
    edges;
  match Checkpoint.close d !idx with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("data-dir setup: " ^ e)

let test_scrub_pass () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  populate_data_dir ~dir;
  let clean = Scrub.scan ~dir () in
  Alcotest.(check int) "clean directory scans clean" 0 (List.length clean.Scrub.corrupt);
  Alcotest.(check bool) "files were scanned" true (clean.Scrub.files_scanned > 0);
  Alcotest.(check bool) "bytes were read" true (clean.Scrub.bytes_read > 0);
  (* flip one bit in the newest checkpoint: its header's CRC contradicts it *)
  let cseq = List.fold_left max 0 (Checkpoint.checkpoint_seqs dir) in
  let cfile = Checkpoint.checkpoint_file ~dir ~seq:cseq in
  Faults.flip_bit_at_rest cfile ~off:(Faults.file_size cfile / 2) ~bit:0;
  (match Checkpoint.body ~generation:(dir, cseq) (Faults.read_all None cfile) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "the header must contradict the flipped snapshot");
  (* ... and recovery falls back a generation rather than loading it *)
  let r = Checkpoint.recover ~dir () in
  Alcotest.(check int) "recovery skipped the corrupt generation" 1
    r.Checkpoint.fallback_checkpoints;
  Alcotest.(check bool) "an index was still recovered" true (r.Checkpoint.index <> None);
  (* flip one payload bit of a sealed WAL's first record (offset 9 is
     inside the payload: 8 header bytes, then tag + ids) *)
  let wseq = List.hd (Checkpoint.wal_seqs dir) in
  let wfile = Checkpoint.wal_file ~dir ~seq:wseq in
  Faults.flip_bit_at_rest wfile ~off:9 ~bit:3;
  (* a torn tail — a record with fewer bytes than its header claims —
     is a crash artifact, not corruption *)
  let torn_seq = 9000 in
  let torn = Checkpoint.wal_file ~dir ~seq:torn_seq in
  let w = Wal.create ~sync:Wal.Always torn in
  List.iter (fun (u, v) -> Wal.append w (Wal.Add_edge { u; v })) (fresh_edges ~seed:32 ~count:3);
  Wal.close w;
  Faults.truncate_at_rest torn ~size:(Faults.file_size torn - 3);
  let report = Scrub.scan ~dir () in
  let kinds = List.sort compare (List.map (fun c -> c.Scrub.what) report.Scrub.corrupt) in
  Alcotest.(check bool) "exactly the two flipped files are corrupt" true
    (kinds = List.sort compare [ `Checkpoint cseq; `Wal wseq ]);
  (* quarantine moves them aside; a rescan is clean *)
  let moved = Scrub.quarantine ~dir (List.map (fun c -> c.Scrub.file) report.Scrub.corrupt) in
  Alcotest.(check int) "both files moved" 2 (List.length moved);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("evidence kept: " ^ name) true
        (Sys.file_exists (Filename.concat (Scrub.quarantine_dir dir) name));
      Alcotest.(check bool) ("removed from the chain: " ^ name) false
        (Sys.file_exists (Filename.concat dir name)))
    moved;
  Alcotest.(check int) "post-quarantine rescan is clean" 0
    (List.length (Scrub.scan ~dir ()).Scrub.corrupt);
  (* already-missing files are skipped, not errors *)
  Alcotest.(check int) "quarantining a missing file is a no-op" 0
    (List.length (Scrub.quarantine ~dir [ "checkpoint-000009999.index" ]))

(* The scrubber reads through Faults.read_all: a bit flipped on the
   way in is reported against the file it was read from, though the
   file itself is intact, and interrupted or short reads are absorbed. *)
let test_scrub_read_faults () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  populate_data_dir ~dir;
  let scan spec = Scrub.scan ~faults:(Faults.create spec) ~dir () in
  (* the first file in name order is the oldest checkpoint; byte 100
     is past its 43-byte header line *)
  let first = List.hd (Checkpoint.checkpoint_seqs dir) in
  let flipped = scan (Faults.Flip_bit_after_bytes 100) in
  Alcotest.(check bool) "the read flip is reported against its file" true
    (List.map (fun c -> c.Scrub.what) flipped.Scrub.corrupt = [ `Checkpoint first ]);
  List.iter
    (fun spec ->
      Alcotest.(check int) "absorbed" 0 (List.length (scan spec).Scrub.corrupt))
    [ Faults.Eintr_reads 3; Faults.Short_read 7 ];
  Alcotest.(check int) "the files themselves are intact" 0
    (List.length (Scrub.scan ~dir ()).Scrub.corrupt)

(* ----------------------------------------------------------------- *)
(* Forked servers (the test_chaos pattern, plus integrity knobs) *)

let read_port_line fd =
  let buf = Buffer.create 16 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> failwith "child died before reporting its port"
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  int_of_string (go ())

let fork_server ?(sync = Wal.Always) ?(checkpoint_records = 1000) ?replica_of
    ?(empty = false) ?hub_heartbeat_s ?(repl_drop_nth = 0) ?read_faults
    ?(config_f = fun c -> c) ~dir () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let status =
      try
        let base = if empty then empty_index () else build_base () in
        let recovery = Checkpoint.recover ~dir () in
        let index = match recovery.Checkpoint.index with Some i -> i | None -> base in
        let cfg = { (Checkpoint.default_config ~dir) with sync; checkpoint_records } in
        let d = Checkpoint.start ~replica:(Option.is_some replica_of) ~recovery cfg index in
        match
          Server.run ~handle_signals:false ~durability:d ?replica_of ?hub_heartbeat_s
            ~repl_drop_nth ?read_faults
            ~on_ready:(fun port ->
              let line = string_of_int port ^ "\n" in
              ignore (Unix.write_substring w line 0 (String.length line));
              Unix.close w)
            (config_f { Server.default_config with port = 0; deadline_s = 0.0 })
            index
        with
        | Ok () -> 0
        | Error _ -> 1
      with _ -> 2
    in
    Unix._exit status
  | pid ->
    Unix.close w;
    let port = read_port_line r in
    Unix.close r;
    (pid, port)

let rconfig ?(replica_id = 1) ~port () =
  {
    (Replication.default_rconfig ~host:"127.0.0.1" ~port ~replica_id) with
    failover_timeout_s = 3600.0;
    staleness_bound_s = 3600.0;
  }

let kill_quiet pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let stats c =
  match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs -> kvs
  | _ -> Alcotest.fail "expected Stats_reply"

let stat kvs key = Option.value (List.assoc_opt key kvs) ~default:""
let istat kvs key = Option.value (int_of_string_opt (stat kvs key)) ~default:0

let wait_for ?(timeout_s = 60.0) ~what c pred =
  let deadline = now () +. timeout_s in
  let rec go () =
    let kvs = stats c in
    if pred kvs then kvs
    else if now () > deadline then
      Alcotest.fail
        (Printf.sprintf "timed out waiting for %s; last stats: %s" what
           (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)))
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let replica_caught_up kvs =
  stat kvs "replication_connected" = "true"
  && stat kvs "replication_bytes_behind" = "0"
  && int_of_string_opt (stat kvs "replication_applied_seq") <> Some (-1)

let add_edges c edges =
  List.iter
    (fun (u, v) ->
      match Client.call c (Wire.Add_edge { u; v }) with
      | Wire.Ok_reply _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "write (%d,%d) was refused" u v))
    edges

let probe c u v =
  match Client.call c (Wire.Has_edge { u; v }) with
  | Wire.Edge_reply { present; _ } -> present
  | _ -> Alcotest.fail "expected Edge_reply"

let digest_of c =
  match Client.call c Wire.Digest_request with
  | Wire.Digest_reply { seq; offset; n_nodes; root; _ } -> (seq, offset, n_nodes, root)
  | _ -> Alcotest.fail "expected Digest_reply"

let wait_digests_equal ?(timeout_s = 60.0) ~what cp cr =
  let deadline = now () +. timeout_s in
  let rec go () =
    let ((pseq, _, _, _) as p) = digest_of cp in
    let r = digest_of cr in
    if pseq >= 0 && p = r then ()
    else if now () > deadline then
      let show (s, o, n, root) = Printf.sprintf "(%d,%d n=%d root=%x)" s o n root in
      Alcotest.fail
        (Printf.sprintf "%s: digests never converged: primary %s, replica %s" what (show p)
           (show r))
    else begin
      Unix.sleepf 0.1;
      go ()
    end
  in
  go ()

(* ----------------------------------------------------------------- *)
(* 3. Digest_request over the wire *)

let wire_of_mutation : Wal.mutation -> Wire.request = function
  | Wal.Add_edge { u; v } -> Wire.Add_edge { u; v }
  | Wal.Remove_edge { u; v } -> Wire.Remove_edge { u; v }
  | Wal.Add_subgraph { graph; reqs } -> Wire.Add_subgraph { graph; reqs }
  | Wal.Promote pairs -> Wire.Promote pairs
  | Wal.Demote reqs -> Wire.Demote reqs

(* After every write kind, the served root is [compute_full] of a local
   copy that applied the same writes, and two digests with no write
   between them are equal. *)
let test_digest_request () =
  let dir = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir)
  @@ fun () ->
  let ppid, pport = fork_server ~dir () in
  pids := [ ppid ];
  let c = Client.connect ~port:pport ~timeout_s:10.0 () in
  let local = ref (build_base ()) in
  let check_served what =
    let ((_, _, n, root) as d) = digest_of c in
    let want = Integrity.compute_full !local in
    Alcotest.(check int) (what ^ ": n_nodes") want.Integrity.n_nodes n;
    Alcotest.(check int) (what ^ ": root") want.Integrity.root root;
    Alcotest.(check bool) (what ^ ": digests are deterministic") true (d = digest_of c);
    d
  in
  let s1, _, n1, r1 = check_served "base" in
  Alcotest.(check bool) "a durable primary has a stable position" true (s1 >= 0);
  let write m =
    (match Client.call c (wire_of_mutation m) with
    | Wire.Ok_reply _ -> ()
    | _ -> Alcotest.fail "write refused");
    local := Checkpoint.apply_mutation !local m
  in
  let u, v = List.hd (fresh_edges ~seed:41 ~count:1) in
  write (Wal.Add_edge { u; v });
  let s2, o2, n2, r2 = check_served "Add_edge" in
  Alcotest.(check bool) "a write moves the root" true (r2 <> r1);
  Alcotest.(check int) "node count is unchanged by an edge" n1 n2;
  Alcotest.(check bool) "the position advanced" true
    (s2 > s1 || (s2 = s1 && o2 > 0));
  let sub =
    Dkindex_graph.Serial.to_string
      (Dkindex_datagen.Random_graph.graph ~seed:43 ~nodes:40 ~n_labels:3 ~extra_edges:10 ())
  in
  List.iter
    (fun (what, m) ->
      write m;
      ignore (check_served what))
    [
      ("Remove_edge", Wal.Remove_edge { u; v });
      ("Promote", Wal.Promote [ ("l1", 4) ]);
      ("Demote", Wal.Demote [ ("l2", 1) ]);
      ("Add_subgraph", Wal.Add_subgraph { graph = sub; reqs = [ ("l0", 1) ] });
    ];
  Client.close c

(* The range-repair op codes (request 0x14, response 0x93) are
   retired: a current-version frame of either kind is a decode error,
   never a message and never an exception. *)
let test_retired_op_codes () =
  let payload kind body =
    Printf.sprintf "%c%c\000\000\000\001%s" (Char.chr Wire.version) (Char.chr kind) body
  in
  let refused what decode kind body =
    let p = payload kind body in
    match decode p ~pos:0 ~len:(String.length p) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s kind 0x%02x decoded" what kind
  in
  (* 0x02 Query (no_cache, then the expression Label "a"), 0x04
     Batch_query (no_cache, one path of one label "a") and 0x14, a
     range-repair request. *)
  refused "request" Wire.decode_request_at 0x02 "\000\001\000\001a";
  refused "request" Wire.decode_request_at 0x04 "\000\000\000\000\001\000\001\000\001a";
  refused "request" Wire.decode_request_at 0x14 "\000\001\000\000\000\000";
  (* 0x83 Batch_result (zero results) and 0x93, a range-repair reply. *)
  refused "response" Wire.decode_response_at 0x83 "\000\000\000\000";
  refused "response" Wire.decode_response_at 0x93 "\000\000\000\000\000\000"

(* ----------------------------------------------------------------- *)
(* 4. Anti-entropy end-to-end: a replica that silently dropped one
   replicated record diverges invisibly (its stream position still
   advances).  The root comparison catches it, and a snapshot resync
   makes the replica a bit-identical copy of the primary, so every
   query answers the same on both. *)

(* Label-path queries over the base graph, as wire label lists. *)
let base_queries () =
  let g = Index_graph.data (build_base ()) in
  Dkindex_workload.Query_gen.(to_strings g (generate ~seed:53 ~count:40 g))

let answers c labels =
  match Client.call c (Wire.Query_path { flags = { no_cache = true }; labels }) with
  | Wire.Result r -> r.Wire.nodes
  | _ -> Alcotest.fail ("expected Result for " ^ String.concat "." labels)

let test_anti_entropy_resyncs_drop () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := ppid :: !pids;
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true
      ~replica_of:(rconfig ~port:pport ())
      ~repl_drop_nth:3
      ~config_f:(fun c -> { c with Server.anti_entropy_interval_s = 0.25 })
      ()
  in
  pids := rpid :: !pids;
  let cp = Client.connect ~port:pport ~timeout_s:10.0 () in
  let cr = Client.connect ~port:rport ~timeout_s:10.0 () in
  (* writes only start once the replica is streaming, so the dropped
     record is a streamed one *)
  let installed =
    istat (wait_for ~what:"replica subscribed" cr replica_caught_up)
      "replication_snapshots_installed"
  in
  let edges = fresh_edges ~seed:51 ~count:8 in
  add_edges cp edges;
  let kvs =
    wait_for ~what:"divergence detected" cr (fun kvs -> istat kvs "replica_divergences" >= 1)
  in
  Alcotest.(check bool) "anti-entropy rounds ran" true (istat kvs "anti_entropy_rounds" >= 1);
  ignore
    (wait_for ~what:"resync" cr (fun kvs ->
         istat kvs "replication_snapshots_installed" > installed));
  wait_digests_equal ~what:"post-resync convergence" cp cr;
  (* the dropped write is now served by the replica like any other *)
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) (Printf.sprintf "replica serves (%d,%d)" u v) true (probe cr u v))
    edges;
  List.iter
    (fun labels ->
      Alcotest.(check (array int))
        ("same answer for " ^ String.concat "." labels)
        (answers cp labels) (answers cr labels))
    (base_queries ());
  Client.close cp;
  Client.close cr

(* ----------------------------------------------------------------- *)
(* 5. At-rest corruption end-to-end: flip one bit in the newest
   checkpoint underneath a running, scrubbing replica.  The scrubber
   finds and counts it, re-checkpoints from the live (known-good)
   index before the corrupt generation leaves the recovery chain, and
   later passes stop re-finding it; the served state never diverged,
   so digests stay converged throughout. *)

let test_scrub_finds_bitrot_e2e () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := ppid :: !pids;
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true
      ~replica_of:(rconfig ~port:pport ())
      ~config_f:(fun c ->
        { c with Server.scrub_interval_s = 0.3; anti_entropy_interval_s = 0.25 })
      ()
  in
  pids := rpid :: !pids;
  let cp = Client.connect ~port:pport ~timeout_s:10.0 () in
  let cr = Client.connect ~port:rport ~timeout_s:10.0 () in
  ignore (wait_for ~what:"replica subscribed" cr replica_caught_up);
  let edges = fresh_edges ~seed:61 ~count:8 in
  add_edges cp edges;
  wait_digests_equal ~what:"healthy convergence" cp cr;
  (* bit rot under the running replica: its newest checkpoint.  The
     server never rereads it in steady state — only the scrubber (or a
     crash recovery) can notice. *)
  let cseq = List.fold_left max 0 (Checkpoint.checkpoint_seqs dir_r) in
  let cfile = Checkpoint.checkpoint_file ~dir:dir_r ~seq:cseq in
  Faults.flip_bit_at_rest cfile ~off:(Faults.file_size cfile / 2) ~bit:2;
  let kvs =
    wait_for ~what:"scrub finds the flipped checkpoint" cr (fun kvs ->
        istat kvs "scrub_corruptions_found" >= 1)
  in
  Alcotest.(check bool) "scrub passes are counted" true (istat kvs "scrub_passes" >= 1);
  (* the finding is handled once — re-checkpoint, then quarantine (or
     the rotation's own prune) — so later passes stop re-counting it *)
  let found = istat kvs "scrub_corruptions_found" in
  let p0 = istat kvs "scrub_passes" in
  let kvs' =
    wait_for ~what:"two more scrub passes" cr (fun kvs -> istat kvs "scrub_passes" >= p0 + 2)
  in
  Alcotest.(check int) "the corruption is not re-found" found
    (istat kvs' "scrub_corruptions_found");
  (* a fresh generation replaced the rotten one: recovery material is
     intact and the pair never diverged *)
  Alcotest.(check bool) "a replacement checkpoint was written" true
    (List.fold_left max 0 (Checkpoint.checkpoint_seqs dir_r) > cseq);
  wait_digests_equal ~what:"post-bitrot convergence" cp cr;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "replica serves (%d,%d) after bit rot" u v)
        true (probe cr u v))
    edges;
  Client.close cp;
  Client.close cr

(* A server's scrub passes read through the read faults it was given:
   a bit flipped on the way in is counted as a corruption found. *)
let test_server_scrub_read_fault () =
  let dir = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir)
  @@ fun () ->
  let pid, port =
    fork_server ~dir
      ~read_faults:(Faults.create (Faults.Flip_bit_after_bytes 100))
      ~config_f:(fun c -> { c with Server.scrub_interval_s = 0.2 })
      ()
  in
  pids := [ pid ];
  let c = Client.connect ~port ~timeout_s:10.0 () in
  let kvs =
    wait_for ~what:"a scrub pass reports the read fault" c (fun kvs ->
        istat kvs "scrub_corruptions_found" >= 1)
  in
  Alcotest.(check int) "one corruption, from the one flip" 1
    (istat kvs "scrub_corruptions_found");
  Client.close c

(* ----------------------------------------------------------------- *)

let () =
  Alcotest.run "integrity"
    [
      ( "digest",
        [
          Alcotest.test_case "digests are content-canonical" `Quick test_content_canonical;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "flips found, torn tails tolerated, quarantine" `Quick
            test_scrub_pass;
          Alcotest.test_case "read faults reach the scrubber" `Quick test_scrub_read_faults;
          Alcotest.test_case "a served scrub pass reports an injected read fault" `Quick
            test_server_scrub_read_fault;
        ] );
      ( "wire",
        [
          Alcotest.test_case "Digest_request round-trip" `Quick test_digest_request;
          Alcotest.test_case
            "retired op codes 0x14 and 0x93 decode to Error, as do 0x02, 0x04 and 0x83" `Quick
            test_retired_op_codes;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "a dropped record is detected and healed by resync" `Quick
            test_anti_entropy_resyncs_drop;
          Alcotest.test_case "at-rest bit rot: scrubbed, quarantined, converged" `Quick
            test_scrub_finds_bitrot_e2e;
        ] );
    ]
