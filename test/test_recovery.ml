(* Crash-safety tests for dkserve's durability layer.

   - Crash harness: fork a real server with WAL + checkpointing on a
     scratch directory, drive a pipelined mutation stream over TCP,
     SIGKILL the process at a random point, recover from the
     directory, and require the recovered index to (a) contain at
     least every acknowledged mutation and at most the sent prefix,
     and (b) answer the query workload bit-for-bit (costs included)
     like an in-process oracle that applied exactly that prefix.
     Repeated for >= 20 random kill points across sync policies.
   - Fault injection: WAL write failure degrades the server to
     read-only (typed Read_only reply, reads keep working); a crash
     mid-checkpoint-write leaves only an ignorable .tmp; a corrupt
     newest checkpoint falls back one generation, also when the
     corruption still parses (the checkpoint's own CRC line refuses
     it, no sidecar needed); a torn WAL tail is
     truncated, never fatal; an unwritable final snapshot at shutdown
     exits nonzero after socket cleanup.
   - Background checkpoints: closing the manager writes every snapshot
     still queued for the background writer before it returns. *)

open Dkindex_core
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Wire = Dkindex_server.Wire
module Server = Dkindex_server.Server
module Client = Dkindex_server.Client
module Wal = Dkindex_server.Wal
module Checkpoint = Dkindex_server.Checkpoint
module Faults = Dkindex_server.Faults
module Prng = Dkindex_datagen.Prng

(* ----------------------------------------------------------------- *)
(* Scratch directories *)

let temp_dir () =
  let path = Filename.temp_file "dkrecovery" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ----------------------------------------------------------------- *)
(* The deterministic base index and mutation stream.  Both the forked
   server and the in-process oracle rebuild this from the same seeds,
   so equality of [Index_serial.to_string] means equality of state. *)

let build_base () =
  let g = Dkindex_datagen.Random_graph.graph ~seed:23 ~nodes:300 ~n_labels:5 ~extra_edges:120 () in
  Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 3); ("l2", 2) ]

let queries =
  [ [ "l0" ]; [ "l1"; "l2" ]; [ "l0"; "l1" ]; [ "l2"; "l3"; "l0" ]; [ "l3"; "l3" ]; [ "l4" ] ]

(* A stream that is valid at every prefix: additions of absent edges,
   removals only of edges the stream itself added, an occasional
   maintenance promote. *)
let make_stream ~seed ~count =
  let idx = build_base () in
  let g = Index_graph.data idx in
  let n = Data_graph.n_nodes g in
  let rng = Prng.create ~seed in
  let present = Hashtbl.create 64 in
  let added = ref [] in
  let has (u, v) = Data_graph.has_edge g u v || Hashtbl.mem present (u, v) in
  let rec fresh_edge tries =
    let e = (Prng.int rng n, Prng.int rng n) in
    if has e && tries < 50 then fresh_edge (tries + 1) else e
  in
  List.init count (fun _ ->
      match !added with
      | e :: rest when Prng.bool rng 0.25 ->
        added := rest;
        Hashtbl.remove present e;
        Wal.Remove_edge { u = fst e; v = snd e }
      | _ when Prng.bool rng 0.06 -> Wal.Promote []
      | _ ->
        let e = fresh_edge 0 in
        Hashtbl.replace present e ();
        added := e :: !added;
        Wal.Add_edge { u = fst e; v = snd e })

let request_of_mutation : Wal.mutation -> Wire.request = function
  | Wal.Add_edge { u; v } -> Wire.Add_edge { u; v }
  | Wal.Remove_edge { u; v } -> Wire.Remove_edge { u; v }
  | Wal.Add_subgraph { graph; reqs } -> Wire.Add_subgraph { graph; reqs }
  | Wal.Promote pairs -> Wire.Promote pairs
  | Wal.Demote reqs -> Wire.Demote reqs

let eval_all idx =
  Index_graph.prepare_serving idx;
  let pool = Data_graph.pool (Index_graph.data idx) in
  let interned =
    List.map (fun labels -> Array.of_list (List.map (Label.Pool.intern pool) labels)) queries
  in
  Query_eval.eval_batch ~strategy:`Forward ~cache:false idx interned

let check_same_answers ~what a b =
  Array.iteri
    (fun i (x : Query_eval.result) ->
      let y = b.(i) in
      let name = Printf.sprintf "%s: query %d" what i in
      Alcotest.(check (list int)) (name ^ " nodes") x.Query_eval.nodes y.Query_eval.nodes;
      Alcotest.(check int)
        (name ^ " index_visits") x.cost.Dkindex_pathexpr.Cost.index_visits
        y.cost.Dkindex_pathexpr.Cost.index_visits;
      Alcotest.(check int)
        (name ^ " data_visits") x.cost.Dkindex_pathexpr.Cost.data_visits
        y.cost.Dkindex_pathexpr.Cost.data_visits;
      Alcotest.(check int) (name ^ " n_candidates") x.n_candidates y.n_candidates;
      Alcotest.(check int) (name ^ " n_certain") x.n_certain y.n_certain)
    a

let read_port_line fd =
  let buf = Buffer.create 16 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> failwith "server died before reporting its port"
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  int_of_string (go ())

(* Fork a durable server over [dir].  The child does exactly what
   dkindex-server does: recover, start the checkpoint manager, serve. *)
let fork_server ?wal_fault_spec ?cp_fault_spec ~dir ~sync ~checkpoint_records () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let status =
      try
        let base = build_base () in
        let recovery = Checkpoint.recover ~dir () in
        let index = match recovery.Checkpoint.index with Some i -> i | None -> base in
        let cfg = { (Checkpoint.default_config ~dir) with sync; checkpoint_records } in
        let wal_faults = Option.map Faults.create wal_fault_spec in
        let checkpoint_faults = Option.map Faults.create cp_fault_spec in
        let d = Checkpoint.start ?wal_faults ?checkpoint_faults ~recovery cfg index in
        match
          Server.run ~handle_signals:false ~durability:d
            ~on_ready:(fun port ->
              let line = string_of_int port ^ "\n" in
              ignore (Unix.write_substring w line 0 (String.length line));
              Unix.close w)
            { Server.default_config with port = 0; deadline_s = 0.0 }
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

(* ----------------------------------------------------------------- *)
(* The crash harness *)

let sync_policies = [| Wal.Never; Wal.Always; Wal.Interval 3 |]

let run_crash_trial ~trial stream =
  let rng = Prng.create ~seed:(1000 + trial) in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sync = sync_policies.(trial mod Array.length sync_policies) in
  (* Tiny rotation threshold so kills land before, during and after
     checkpoint rotations, not just inside one long WAL. *)
  let pid, port = fork_server ~dir ~sync ~checkpoint_records:4 () in
  let c = Client.connect ~port () in
  List.iter (fun m -> ignore (Client.send c (request_of_mutation m))) stream;
  let total = List.length stream in
  let acked = ref 0 in
  let recv_acks limit =
    try
      while !acked < limit do
        match (Client.recv c).Wire.msg with
        | Wire.Ok_reply _ -> incr acked
        | Wire.Error_reply { message; _ } ->
          Alcotest.fail (Printf.sprintf "trial %d: mutation %d rejected: %s" trial !acked message)
        | _ -> Alcotest.fail (Printf.sprintf "trial %d: unexpected response" trial)
      done
    with Failure _ -> ()
  in
  (* Wait for a random number of acknowledgements, then kill -9. *)
  recv_acks (Prng.int rng (total + 1));
  Unix.kill pid Sys.sigkill;
  (* Acknowledgements already in flight still count: the client saw
     them, so the recovered server must remember them. *)
  recv_acks max_int;
  Client.close c;
  ignore (Unix.waitpid [] pid);
  let acked = !acked in
  let recovery = Checkpoint.recover ~dir () in
  let recovered =
    match recovery.Checkpoint.index with
    | Some i -> i
    | None -> Alcotest.fail (Printf.sprintf "trial %d: no recoverable state" trial)
  in
  Alcotest.(check int)
    (Printf.sprintf "trial %d: replay clean" trial)
    0 recovery.Checkpoint.replay_errors;
  let recovered_str = Index_serial.to_string recovered in
  (* The recovered state must be oracle(j) for some sent prefix j with
     acked <= j <= total: everything acknowledged survived, nothing
     beyond what was sent appeared. *)
  let oracle = build_base () in
  let rec find j idx =
    if j >= acked && Index_serial.to_string idx = recovered_str then Some (j, idx)
    else if j >= total then None
    else find (j + 1) (Checkpoint.apply_mutation idx (List.nth stream j))
  in
  match find 0 oracle with
  | None ->
    Alcotest.fail
      (Printf.sprintf "trial %d (sync=%s): recovered state matches no prefix in [%d, %d]" trial
         (Wal.sync_policy_to_string sync) acked total)
  | Some (j, oracle_idx) ->
    check_same_answers
      ~what:(Printf.sprintf "trial %d (sync=%s, acked %d, durable %d/%d)" trial
               (Wal.sync_policy_to_string sync) acked j total)
      (eval_all oracle_idx) (eval_all recovered)

let test_crash_harness () =
  let stream = make_stream ~seed:7 ~count:30 in
  for trial = 0 to 20 do
    run_crash_trial ~trial stream
  done

(* A killed server restarted on the same directory serves the
   recovered state and accepts new mutations. *)
let test_restart_continues () =
  let stream = make_stream ~seed:8 ~count:12 in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, port = fork_server ~dir ~sync:Wal.Always ~checkpoint_records:4 () in
  let c = Client.connect ~port () in
  List.iter
    (fun m ->
      match Client.call c (request_of_mutation m) with
      | Wire.Ok_reply _ -> ()
      | _ -> Alcotest.fail "mutation rejected before kill")
    stream;
  Unix.kill pid Sys.sigkill;
  Client.close c;
  ignore (Unix.waitpid [] pid);
  (* Restart on the same directory; it must serve base + stream. *)
  let pid, port = fork_server ~dir ~sync:Wal.Always ~checkpoint_records:4 () in
  let oracle =
    List.fold_left (fun idx m -> Checkpoint.apply_mutation idx m) (build_base ()) stream
  in
  let want = eval_all oracle in
  let c = Client.connect ~port () in
  List.iteri
    (fun i labels ->
      match Client.call c (Wire.Query_path { flags = { no_cache = true }; labels }) with
      | Wire.Result r ->
        let w = want.(i) in
        Alcotest.(check (list int)) "nodes" w.Query_eval.nodes (Array.to_list r.Wire.nodes);
        Alcotest.(check int) "index_visits" w.cost.Dkindex_pathexpr.Cost.index_visits
          r.Wire.index_visits;
        Alcotest.(check int) "data_visits" w.cost.Dkindex_pathexpr.Cost.data_visits
          r.Wire.data_visits
      | _ -> Alcotest.fail "expected Result after restart")
    queries;
  (match Client.call c (Wire.Add_edge { u = 0; v = 1 }) with
  | Wire.Ok_reply _ | Wire.Error_reply _ -> ()
  | _ -> Alcotest.fail "restarted server refused a write");
  (match Client.call c Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  let _, status = Unix.waitpid [] pid in
  Client.close c;
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0)

(* ----------------------------------------------------------------- *)
(* Fault injection *)

(* WAL write failure: the server degrades to read-only instead of
   crashing; queries keep working and stats report the state. *)
let test_read_only_degradation () =
  let stream = make_stream ~seed:9 ~count:6 in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, port =
    fork_server ~wal_fault_spec:(Faults.Fail_nth_write 3) ~dir ~sync:(Wal.Interval 64)
      ~checkpoint_records:1000 ()
  in
  let c = Client.connect ~port () in
  let replies =
    List.map (fun m -> Client.call c (request_of_mutation m)) stream
  in
  let oks = List.filter (function Wire.Ok_reply _ -> true | _ -> false) replies in
  let ros = List.filter (function Wire.Read_only -> true | _ -> false) replies in
  Alcotest.(check int) "two writes acknowledged before the fault" 2 (List.length oks);
  Alcotest.(check int) "the rest refused as Read_only" (List.length stream - 2)
    (List.length ros);
  (* Reads still work. *)
  (match Client.call c Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong in read-only mode");
  (match Client.call c (Wire.Query_path { flags = { no_cache = true }; labels = [ "l0" ] }) with
  | Wire.Result _ -> ()
  | _ -> Alcotest.fail "expected Result in read-only mode");
  (match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs ->
    Alcotest.(check (option string)) "read_only stat" (Some "true")
      (List.assoc_opt "read_only" kvs);
    Alcotest.(check (option string)) "durability stat" (Some "wal+checkpoint")
      (List.assoc_opt "durability" kvs);
    Alcotest.(check bool) "wal_error recorded" true
      (match List.assoc_opt "wal_error" kvs with Some "" | None -> false | Some _ -> true)
  | _ -> Alcotest.fail "expected Stats_reply");
  (match Client.call c Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  let _, status = Unix.waitpid [] pid in
  Client.close c;
  (* Read-only shutdown cannot checkpoint the unlogged tail, but it is
     still a clean exit: the durable prefix is exactly what was
     acknowledged. *)
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
  let recovery = Checkpoint.recover ~dir () in
  Alcotest.(check bool) "recoverable" true (recovery.Checkpoint.index <> None)

(* ENOSPC on the final shutdown checkpoint: log-and-exit-nonzero, not
   an exception through the drain loop. *)
let test_shutdown_enospc_exits_nonzero () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, port =
    (* Each checkpoint is one faulted write (header and snapshot in
       one file), so write 2 is the shutdown checkpoint. *)
    fork_server ~cp_fault_spec:(Faults.Fail_nth_write 2) ~dir ~sync:(Wal.Interval 64)
      ~checkpoint_records:1000 ()
  in
  let c = Client.connect ~port () in
  (match Client.call c (Wire.Add_edge { u = 0; v = 5 }) with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply");
  (match Client.call c Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  let _, status = Unix.waitpid [] pid in
  Client.close c;
  Alcotest.(check bool) "exits nonzero, does not raise" true (status = Unix.WEXITED 1);
  (* The WAL survived even though the final checkpoint did not. *)
  let recovery = Checkpoint.recover ~dir () in
  Alcotest.(check int) "wal replayed" 1 recovery.Checkpoint.replayed_records

(* Crash mid-checkpoint-write: the torn snapshot stays a .tmp that
   recovery ignores; the WAL carries the state. *)
let test_crash_during_checkpoint () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let stream = make_stream ~seed:10 ~count:4 in
  (match Unix.fork () with
  | 0 ->
    let idx = build_base () in
    (* The initial checkpoint file is the fixed-width header line and
       the snapshot; the crash must land inside the *second* file. *)
    let header_bytes = String.length (Printf.sprintf "dkindex-checkpoint 1 %08x %012d\n" 0 0) in
    let cp_bytes = (Index_serial.encode_compact idx).Index_serial.len in
    let faults = Faults.create (Faults.Crash_after_bytes (header_bytes + cp_bytes + 7)) in
    let cfg = { (Checkpoint.default_config ~dir) with checkpoint_records = 1000 } in
    let d = Checkpoint.start ~checkpoint_faults:faults cfg idx in
    let idx =
      List.fold_left
        (fun i m ->
          let i' = Checkpoint.apply_mutation i m in
          Checkpoint.log_mutation d m;
          i')
        idx stream
    in
    (* Crashes via _exit inside the snapshot write. *)
    ignore (Checkpoint.checkpoint_now d idx);
    Unix._exit 3
  | pid ->
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "crashed inside the checkpoint write" true
      (status = Unix.WEXITED Faults.exit_code));
  let recovery = Checkpoint.recover ~dir () in
  let recovered =
    match recovery.Checkpoint.index with
    | Some i -> i
    | None -> Alcotest.fail "no recoverable state"
  in
  Alcotest.(check int) "wal replayed over the surviving checkpoint" (List.length stream)
    recovery.Checkpoint.replayed_records;
  let oracle =
    List.fold_left (fun i m -> Checkpoint.apply_mutation i m) (build_base ()) stream
  in
  check_same_answers ~what:"crash during checkpoint" (eval_all oracle) (eval_all recovered)

(* Corrupt newest checkpoint: recovery falls back a generation and
   replays the WAL chain; corrupting every checkpoint still does not
   raise.  A torn WAL tail is truncated. *)
let test_corrupt_checkpoint_fallback () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let stream = make_stream ~seed:11 ~count:8 in
  let first, second =
    let rec split i = function
      | rest when i = 0 -> ([], rest)
      | m :: rest ->
        let a, b = split (i - 1) rest in
        (m :: a, b)
      | [] -> ([], [])
    in
    split 5 stream
  in
  let idx = build_base () in
  let cfg = { (Checkpoint.default_config ~dir) with checkpoint_records = 1000 } in
  let d = Checkpoint.start cfg idx in
  let log idx m =
    let idx' = Checkpoint.apply_mutation idx m in
    Checkpoint.log_mutation d m;
    idx'
  in
  let idx = List.fold_left log idx first in
  (match Checkpoint.checkpoint_now d idx with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("mid-run checkpoint failed: " ^ e));
  let idx = List.fold_left log idx second in
  (match Checkpoint.close d idx with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("close failed: " ^ e));
  let oracle =
    List.fold_left (fun i m -> Checkpoint.apply_mutation i m) (build_base ()) stream
  in
  let want = eval_all oracle in
  let newest_cp dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n ->
           String.starts_with ~prefix:"checkpoint-" n && Filename.check_suffix n ".index")
    |> List.sort compare |> List.rev |> List.hd
  in
  (* Clean recovery first. *)
  let r0 = Checkpoint.recover ~dir () in
  check_same_answers ~what:"clean recovery" want (eval_all (Option.get r0.Checkpoint.index));
  Alcotest.(check int) "no fallback needed" 0 r0.Checkpoint.fallback_checkpoints;
  (* Torn tail on the newest WAL: truncated, not fatal. *)
  let newest_wal =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> String.starts_with ~prefix:"wal-" n)
    |> List.sort compare |> List.rev |> List.hd
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir newest_wal) in
  output_string oc "\x00\x00\x00\x30garbage-that-is-not-a-record";
  close_out oc;
  let r1 = Checkpoint.recover ~dir () in
  Alcotest.(check bool) "torn tail truncated" true (r1.Checkpoint.torn_bytes > 0);
  check_same_answers ~what:"torn-tail recovery" want (eval_all (Option.get r1.Checkpoint.index));
  (* Corrupt the newest checkpoint: fall back one generation. *)
  let cp1 = newest_cp dir in
  let oc = open_out (Filename.concat dir cp1) in
  output_string oc "dkindex-index 2\ncounts 1 1 1\ngarbage";
  close_out oc;
  let r2 = Checkpoint.recover ~dir () in
  Alcotest.(check int) "fell back one checkpoint" 1 r2.Checkpoint.fallback_checkpoints;
  check_same_answers ~what:"fallback recovery" want (eval_all (Option.get r2.Checkpoint.index));
  (* Corrupt every checkpoint: still no exception, just no state. *)
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> String.starts_with ~prefix:"checkpoint-" n)
  |> List.iter (fun n ->
         let oc = open_out (Filename.concat dir n) in
         output_string oc "not an index";
         close_out oc);
  let r3 = Checkpoint.recover ~dir () in
  Alcotest.(check bool) "all corrupt: index is None, no crash" true
    (r3.Checkpoint.index = None);
  Alcotest.(check int) "both skipped" 2 r3.Checkpoint.fallback_checkpoints

(* A corrupted newest checkpoint that still decodes, and no sidecar in
   the directory: one byte of the partition changed so that the body
   decodes to an index answering differently.  Only the checkpoint's
   own CRC can catch it; recovery must refuse it, fall back one
   generation and replay to the oracle's state. *)
let test_parseable_flip_falls_back () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let stream = make_stream ~seed:19 ~count:10 in
  let cfg = { (Checkpoint.default_config ~dir) with checkpoint_records = 1000 } in
  let d = Checkpoint.start cfg (build_base ()) in
  let idx =
    List.fold_left
      (fun idx m ->
        let idx' = Checkpoint.apply_mutation idx m in
        Checkpoint.log_mutation d m;
        idx')
      (build_base ()) stream
  in
  (match Checkpoint.checkpoint_now d idx with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("checkpoint failed: " ^ e));
  (match Checkpoint.close d idx with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("close failed: " ^ e));
  let want = eval_all (List.fold_left Checkpoint.apply_mutation (build_base ()) stream) in
  let seqs = Checkpoint.checkpoint_seqs dir in
  Alcotest.(check int) "two generations" 2 (List.length seqs);
  let path = Checkpoint.checkpoint_file ~dir ~seq:(List.fold_left max 0 seqs) in
  let file = In_channel.with_open_bin path In_channel.input_all in
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length file then Alcotest.fail ("no " ^ String.escaped sub)
      else if String.equal (String.sub file i n) sub then i
      else go (i + 1)
    in
    go from
  in
  let doc = find Index_serial.compact_magic 0 in
  let answers f = eval_all (Index_serial.decode (String.sub f doc (String.length f - doc))) in
  (* The first one-byte change from the end of the body backwards (the
     class ids, then the per-class k and req) that still decodes and
     changes an answer or its cost. *)
  let rec flip i =
    if i <= doc then Alcotest.fail "no decodable flip changes an answer"
    else
      let tried =
        List.find_map
          (fun x ->
            let b = Bytes.of_string file in
            Bytes.set b i (Char.chr (Char.code file.[i] lxor x));
            let f = Bytes.to_string b in
            match answers f with
            | got when got <> want -> Some f
            | _ | (exception _) -> None)
          [ 1; 2; 4; 8 ]
      in
      match tried with Some f -> f | None -> flip (i - 1)
  in
  let flipped = flip (String.length file - 1) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc flipped);
  Sys.readdir dir
  |> Array.iter (fun n -> if Filename.check_suffix n ".crc" then Sys.remove (Filename.concat dir n));
  let r = Checkpoint.recover ~dir () in
  Alcotest.(check int) "refused the flipped generation" 1 r.Checkpoint.fallback_checkpoints;
  check_same_answers ~what:"recovery past a parseable flip" want
    (eval_all (Option.get r.Checkpoint.index))

(* The background checkpoint writer drains on close: with a rotation
   every two records and slowed checkpoint writes, snapshots are still
   queued when [close] is called, and it returns only after every one
   is written; the directory recovers to the logged state. *)
let test_close_drains_queued_checkpoints () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let n = 11 in
  let stream = make_stream ~seed:13 ~count:n in
  let cfg = { (Checkpoint.default_config ~dir) with checkpoint_records = 2 } in
  let checkpoint_faults = Faults.create (Faults.Slow_write 0.02) in
  let d = Checkpoint.start ~checkpoint_faults cfg (build_base ()) in
  let idx =
    List.fold_left
      (fun idx m ->
        let idx' = Checkpoint.apply_mutation idx m in
        Checkpoint.log_mutation d m;
        Checkpoint.maybe_checkpoint d idx';
        idx')
      (build_base ()) stream
  in
  (match Checkpoint.close d idx with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("close failed: " ^ e));
  let stat key = List.assoc key (Checkpoint.stats d) in
  (* The start checkpoint, one rotation per two records, and a final
     checkpoint when the last WAL still holds a record. *)
  let expected = 1 + (n / 2) + (n mod 2) in
  Alcotest.(check string) "checkpoints_written" (string_of_int expected) (stat "checkpoints_written");
  Alcotest.(check string) "checkpoint_failures" "0" (stat "checkpoint_failures");
  let oracle = List.fold_left Checkpoint.apply_mutation (build_base ()) stream in
  let r = Checkpoint.recover ~dir () in
  check_same_answers ~what:"recovery after close" (eval_all oracle)
    (eval_all (Option.get r.Checkpoint.index))

(* Stats time the persistence stages: the encode of the newest
   checkpoint, and the load and replay halves of a recovery that
   actually replays records. *)
let test_stats_time_persistence_stages () =
  let dir = temp_dir () and dir2 = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir; rm_rf dir2) @@ fun () ->
  let stream = make_stream ~seed:17 ~count:8 in
  let cfg = { (Checkpoint.default_config ~dir) with checkpoint_records = 1000 } in
  let d = Checkpoint.start cfg (build_base ()) in
  let num stats key =
    match List.assoc_opt key stats with
    | Some v -> (
      match float_of_string_opt v with
      | Some x -> x
      | None -> Alcotest.fail (Printf.sprintf "%s = %S is not a number" key v))
    | None -> Alcotest.fail ("stats lack " ^ key)
  in
  let s0 = Checkpoint.stats d in
  Alcotest.(check bool) "start checkpoint encode timed" true (num s0 "checkpoint_last_encode_us" > 0.0);
  Alcotest.(check (float 0.0)) "no recovery: load 0" 0.0 (num s0 "recovery_load_ms");
  Alcotest.(check (float 0.0)) "no recovery: replay 0" 0.0 (num s0 "recovery_replay_ms");
  let idx =
    List.fold_left
      (fun idx m ->
        let idx' = Checkpoint.apply_mutation idx m in
        Checkpoint.log_mutation d m;
        idx')
      (build_base ()) stream
  in
  (* [dir] now holds what a crash would leave: the start checkpoint and
     a WAL of every record.  Recover from it while [d] is still live;
     the recovery only needs to reach a manager's stats. *)
  let recovery = Checkpoint.recover ~dir () in
  Alcotest.(check int) "replayed the stream" (List.length stream)
    recovery.Checkpoint.replayed_records;
  let d2 = Checkpoint.start ~recovery { cfg with dir = dir2 } idx in
  let s2 = Checkpoint.stats d2 in
  Alcotest.(check bool) "recovery_load_ms > 0" true (num s2 "recovery_load_ms" > 0.0);
  Alcotest.(check bool) "recovery_replay_ms > 0" true (num s2 "recovery_replay_ms" > 0.0);
  Alcotest.(check bool) "encode timed" true (num s2 "checkpoint_last_encode_us" > 0.0);
  List.iter
    (fun m ->
      match Checkpoint.close m idx with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("close failed: " ^ e))
    [ d2; d ]

let () =
  Alcotest.run "recovery"
    [
      ( "crash",
        [
          Alcotest.test_case "21 random SIGKILL points recover exactly" `Slow
            test_crash_harness;
          Alcotest.test_case "restart on the same directory continues" `Quick
            test_restart_continues;
        ] );
      ( "faults",
        [
          Alcotest.test_case "wal failure degrades to read-only" `Quick
            test_read_only_degradation;
          Alcotest.test_case "shutdown ENOSPC exits nonzero" `Quick
            test_shutdown_enospc_exits_nonzero;
          Alcotest.test_case "crash during checkpoint write" `Quick
            test_crash_during_checkpoint;
          Alcotest.test_case "corrupt checkpoints fall back; torn tails truncate" `Quick
            test_corrupt_checkpoint_fallback;
          Alcotest.test_case "a parseable flip is refused without a sidecar" `Quick
            test_parseable_flip_falls_back;
          Alcotest.test_case "close drains every queued background checkpoint" `Quick
            test_close_drains_queued_checkpoints;
        ] );
      ( "stats",
        [
          Alcotest.test_case "persistence stages are timed" `Quick
            test_stats_time_persistence_stages;
        ] );
    ]
