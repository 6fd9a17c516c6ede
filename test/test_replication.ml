(* Replication tests for dkserve: WAL shipping, snapshot catch-up,
   failover, and epoch fencing.

   Every server in these tests runs in a forked child process, so a
   test can SIGKILL a primary like a real crash.  The parent drives
   real TCP clients and compares answers against an in-process oracle built from the same deterministic seeds — as in
   test_recovery, equality of answers *including validation costs*
   means equality of index state.

   - convergence: a replica tails the primary's WAL and answers every
     query bit-for-bit; writes to it are refused with Not_primary.
   - failover: SIGKILL the primary after the replica caught up; an
     operator Promote_primary turns the replica into a primary (epoch
     1) that remembers every acknowledged write and accepts new ones.
   - promotion durability: a promotion whose epoch cannot be persisted
     is refused and leaves the replica's role and epoch untouched.
   - fencing: promoting a replica while the old primary still lives
     (split-brain) fences the deposed primary — its writes are refused
     with Fenced, and writes resume on the promoted replica.
   - bootstrap: a replica joining after the primary pruned its early
     WAL generations catches up via snapshot transfer; a snapshot
     flipped on the link is refused and fetched again, and the one
     installed is kept byte for byte as the replica's checkpoint.
   - large bootstrap: a checkpoint over the 16 MiB request bound still
     ships as one snapshot frame and installs.
   - unbootstrapped replica: until it installs a snapshot, a replica
     refuses queries with Stale.
   - torn streams: a replication link that tears mid-frame makes the
     replica reconnect and still converge.
   - auto-promotion: with --auto-promote, a replica whose primary goes
     silent past the failover timeout promotes itself. *)

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
module Prng = Dkindex_datagen.Prng

(* ----------------------------------------------------------------- *)
(* Scratch directories *)

let temp_dir () =
  let path = Filename.temp_file "dkrepl" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ----------------------------------------------------------------- *)
(* Deterministic base index, mutation stream, oracle (as in
   test_recovery: same seeds on both sides). *)

let build_base () =
  let g = Dkindex_datagen.Random_graph.graph ~seed:23 ~nodes:300 ~n_labels:5 ~extra_edges:120 () in
  Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 3); ("l2", 2) ]

let empty_index () =
  let pool = Label.Pool.create () in
  let root = Label.Pool.intern pool Label.root_name in
  let g = Data_graph.make ~pool ~labels:[| root |] ~edges:[] () in
  Dk_index.build g ~reqs:[]

let queries =
  [ [ "l0" ]; [ "l1"; "l2" ]; [ "l0"; "l1" ]; [ "l2"; "l3"; "l0" ]; [ "l3"; "l3" ]; [ "l4" ] ]

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

let oracle_after stream =
  List.fold_left (fun idx m -> Checkpoint.apply_mutation idx m) (build_base ()) stream

let eval_all idx =
  Index_graph.prepare_serving idx;
  let pool = Data_graph.pool (Index_graph.data idx) in
  let interned =
    List.map (fun labels -> Array.of_list (List.map (Label.Pool.intern pool) labels)) queries
  in
  Query_eval.eval_batch ~strategy:`Forward ~cache:false idx interned

(* Every query answered by [c] must match the oracle bit-for-bit,
   validation costs included. *)
let check_serves_oracle ~what c oracle_idx =
  let want = eval_all oracle_idx in
  List.iteri
    (fun i labels ->
      match Client.call c (Wire.Query_path { flags = { no_cache = true }; labels }) with
      | Wire.Result r ->
        let w = want.(i) in
        let name = Printf.sprintf "%s: query %d" what i in
        Alcotest.(check (list int)) (name ^ " nodes") w.Query_eval.nodes (Array.to_list r.Wire.nodes);
        Alcotest.(check int)
          (name ^ " index_visits") w.cost.Dkindex_pathexpr.Cost.index_visits r.Wire.index_visits;
        Alcotest.(check int)
          (name ^ " data_visits") w.cost.Dkindex_pathexpr.Cost.data_visits r.Wire.data_visits;
        Alcotest.(check int) (name ^ " n_candidates") w.n_candidates r.Wire.n_candidates;
        Alcotest.(check int) (name ^ " n_certain") w.n_certain r.Wire.n_certain
      | Wire.Error_reply { message; _ } -> Alcotest.fail (what ^ ": server error: " ^ message)
      | _ -> Alcotest.fail (what ^ ": expected Result"))
    queries

(* ----------------------------------------------------------------- *)
(* Forked servers *)

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

(* Fork a durable server over [dir].  [replica_of] makes it a replica;
   [empty] starts it from a one-node index (what a fresh replica does)
   instead of [base] (default: the deterministic base).  [hub_faults]
   builds the fault injector inside the child (closures survive
   fork). *)
let fork_server ?(sync = Wal.Always) ?(checkpoint_records = 1000) ?replica_of ?(empty = false)
    ?(base = build_base) ?hub_faults ?hub_heartbeat_s ~dir () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let status =
      try
        let base = if empty then empty_index () else base () in
        let recovery = Checkpoint.recover ~dir () in
        let index = match recovery.Checkpoint.index with Some i -> i | None -> base in
        let cfg = { (Checkpoint.default_config ~dir) with sync; checkpoint_records } in
        let d = Checkpoint.start ~replica:(Option.is_some replica_of) ~recovery cfg index in
        match
          Server.run ~handle_signals:false ~durability:d ?replica_of ?hub_faults
            ?hub_heartbeat_s
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

let rconfig ?(replica_id = 1) ?(auto_promote = false) ?(failover_timeout_s = 3600.0)
    ?(staleness_bound_s = 3600.0) ~port () =
  {
    (Replication.default_rconfig ~host:"127.0.0.1" ~port ~replica_id) with
    auto_promote;
    failover_timeout_s;
    staleness_bound_s;
  }

let kill_quiet pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let shutdown c pid =
  (match Client.call c Wire.Shutdown with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected Ok_reply for Shutdown");
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0)

let stats c =
  match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs -> kvs
  | _ -> Alcotest.fail "expected Stats_reply"

let stat kvs key = Option.value (List.assoc_opt key kvs) ~default:""

(* Poll [pred (stats c)] until true or [timeout_s] elapses. *)
let wait_for ?(timeout_s = 60.0) ~what c pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let kvs = stats c in
    if pred kvs then kvs
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail
        (Printf.sprintf "timed out waiting for %s; last stats: %s" what
           (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)))
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

(* Caught up = connected to the current lineage with zero bytes of WAL
   left to apply (heartbeats keep the primary position fresh). *)
let replica_caught_up kvs =
  stat kvs "replication_connected" = "true"
  && stat kvs "replication_bytes_behind" = "0"
  && int_of_string_opt (stat kvs "replication_applied_seq") <> Some (-1)

(* Race-free catch-up ("wait for LSN"): capture the primary's WAL
   position once every write is acked, then wait until the replica (a)
   has *heard of* that position — a stale heartbeat cannot fake this —
   and (b) reports zero bytes behind, which covers both the
   heartbeat-known gap and received-but-unapplied records sitting in
   the apply queue. *)
let primary_wal_position cp =
  let kvs = stats cp in
  (int_of_string (stat kvs "wal_seq"), int_of_string (stat kvs "wal_bytes"))

let replica_applied_to (pseq, poff) kvs =
  replica_caught_up kvs
  &&
  match
    ( int_of_string_opt (stat kvs "replication_primary_seq"),
      int_of_string_opt (stat kvs "replication_primary_offset") )
  with
  | Some kseq, Some koff -> kseq > pseq || (kseq = pseq && koff >= poff)
  | _ -> false

let wait_replica_applied ?timeout_s ~what cp cr =
  let pos = primary_wal_position cp in
  wait_for ?timeout_s ~what cr (replica_applied_to pos)

let send_stream c stream =
  List.iter
    (fun m ->
      match Client.call c (request_of_mutation m) with
      | Wire.Ok_reply _ -> ()
      | Wire.Error_reply { message; _ } -> Alcotest.fail ("mutation rejected: " ^ message)
      | _ -> Alcotest.fail "unexpected response to mutation")
    stream

(* ----------------------------------------------------------------- *)
(* Convergence: replica answers bit-for-bit, refuses writes *)

let test_convergence () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let stream = make_stream ~seed:31 ~count:25 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  let cr = Client.connect ~port:rport () in
  let kvs = wait_replica_applied ~what:"replica catch-up" cp cr in
  Alcotest.(check string) "replica role" "replica" (stat kvs "role");
  Alcotest.(check bool) "snapshot bootstrap happened" true
    (int_of_string (stat kvs "replication_snapshots_installed") >= 1);
  (* Bit-for-bit equality with the oracle, costs included. *)
  check_serves_oracle ~what:"replica after catch-up" cr (oracle_after stream);
  (* Writes are refused with a redirect to the primary. *)
  (match Client.call cr (Wire.Add_edge { u = 0; v = 1 }) with
  | Wire.Not_primary { host; port } ->
    Alcotest.(check string) "redirect host" "127.0.0.1" host;
    Alcotest.(check int) "redirect port" pport port
  | _ -> Alcotest.fail "expected Not_primary from the replica");
  (* The primary sees its subscriber. *)
  let pkvs = stats cp in
  Alcotest.(check string) "primary sees one replica" "1" (stat pkvs "replicas_connected");
  Alcotest.(check string) "primary role" "primary" (stat pkvs "role");
  (* Incremental shipping: more writes arrive without a new snapshot. *)
  let more = make_stream ~seed:32 ~count:40 in
  send_stream cp more;
  let kvs = wait_replica_applied ~what:"incremental catch-up" cp cr in
  Alcotest.(check bool) "no extra snapshot for incremental records" true
    (int_of_string (stat kvs "replication_records_applied") > 0);
  check_serves_oracle ~what:"replica after more writes" cr
    (oracle_after (stream @ more));
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* ----------------------------------------------------------------- *)
(* Failover: SIGKILL the primary, promote the replica *)

let test_failover_promote () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let stream = make_stream ~seed:41 ~count:30 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  (* Replication is asynchronous: an acknowledged write is only
     failover-durable once the replica caught up, so wait before the
     kill — this is exactly what dkindex-loadgen --wait-replication
     does in CI. *)
  let cr = Client.connect ~port:rport () in
  ignore (wait_replica_applied ~what:"replica catch-up before kill" cp cr);
  Unix.kill ppid Sys.sigkill;
  ignore (Unix.waitpid [] ppid);
  pids := [ rpid ];
  (* Operator failover. *)
  (match Client.call cr Wire.Promote_primary with
  | Wire.Ok_reply { epoch; _ } -> Alcotest.(check int) "promotion bumps the epoch" 1 epoch
  | Wire.Error_reply { message; _ } -> Alcotest.fail ("promote failed: " ^ message)
  | _ -> Alcotest.fail "expected Ok_reply for Promote_primary");
  let kvs = stats cr in
  Alcotest.(check string) "promoted role" "primary" (stat kvs "role");
  Alcotest.(check string) "promoted epoch" "1" (stat kvs "epoch");
  (* Every acknowledged write survived the failover. *)
  check_serves_oracle ~what:"promoted replica" cr (oracle_after stream);
  (* And it accepts new writes, stamped with the new epoch. *)
  let more = make_stream ~seed:42 ~count:8 in
  List.iter
    (fun m ->
      match Client.call cr (request_of_mutation m) with
      | Wire.Ok_reply { epoch; _ } -> Alcotest.(check int) "acks carry epoch 1" 1 epoch
      | _ -> Alcotest.fail "promoted replica refused a write")
    more;
  check_serves_oracle ~what:"promoted replica after new writes" cr
    (oracle_after (stream @ more));
  shutdown cr rpid;
  pids := []

(* ----------------------------------------------------------------- *)
(* Promotion persists its epoch or refuses *)

let test_promote_needs_durable_epoch () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  (* A directory where the epoch file's temp copy must be written: the
     new epoch cannot be made durable while it exists. *)
  let blocker = Filename.concat dir_r "epoch.tmp" in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      (try Unix.rmdir blocker with Unix.Unix_error _ -> ());
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let stream = make_stream ~seed:51 ~count:10 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  let cr = Client.connect ~port:rport () in
  let epoch0 = int_of_string (stat (wait_replica_applied ~what:"replica catch-up" cp cr) "epoch") in
  Unix.mkdir blocker 0o755;
  (match Client.call cr Wire.Promote_primary with
  | Wire.Error_reply _ -> ()
  | _ -> Alcotest.fail "promotion must be refused while the epoch cannot be persisted");
  let kvs = stats cr in
  Alcotest.(check string) "refused: still a replica" "replica" (stat kvs "role");
  Alcotest.(check string) "refused: epoch unchanged" (string_of_int epoch0) (stat kvs "epoch");
  Unix.rmdir blocker;
  (match Client.call cr Wire.Promote_primary with
  | Wire.Ok_reply { epoch; _ } -> Alcotest.(check int) "promotion bumps the epoch" (epoch0 + 1) epoch
  | _ -> Alcotest.fail "promotion must succeed once the epoch can be persisted");
  let kvs = stats cr in
  Alcotest.(check string) "promoted role" "primary" (stat kvs "role");
  Alcotest.(check int) "epoch persisted" (epoch0 + 1) (Replication.load_epoch ~dir:dir_r);
  check_serves_oracle ~what:"promoted replica" cr (oracle_after stream);
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* ----------------------------------------------------------------- *)
(* Fencing: a deposed primary cannot acknowledge into a stale lineage *)

let test_fencing_deposed_primary () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let stream = make_stream ~seed:51 ~count:10 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  let cr = Client.connect ~port:rport () in
  ignore (wait_replica_applied ~what:"replica catch-up" cp cr);
  (* Split-brain: promote the replica while the old primary still
     lives and still believes it leads. *)
  (match Client.call cr Wire.Promote_primary with
  | Wire.Ok_reply { epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "expected promotion to epoch 1");
  (* Writes resume on the promoted replica, acked in the new epoch. *)
  (match Client.call cr (Wire.Add_edge { u = 2; v = 3 }) with
  | Wire.Ok_reply { epoch; _ } -> Alcotest.(check int) "write acked in epoch 1" 1 epoch
  | Wire.Error_reply { message; _ } -> Alcotest.fail ("promoted replica refused a write: " ^ message)
  | _ -> Alcotest.fail "expected Ok_reply from the promoted replica");
  (* A client that has seen epoch 1 fences the deposed primary: its
     Hello carries the newer epoch, and writes are refused. *)
  let cp2 = Client.connect ~port:pport ~epoch:1 () in
  (match Client.call cp2 (Wire.Add_edge { u = 4; v = 5 }) with
  | Wire.Fenced { epoch } -> Alcotest.(check int) "fenced against epoch 1" 1 epoch
  | _ -> Alcotest.fail "expected Fenced from the deposed primary");
  let pkvs = stats cp in
  Alcotest.(check string) "deposed primary reports fenced" "true" (stat pkvs "fenced");
  (* Reads on the fenced primary still work (it can serve its own
     lineage's data). *)
  (match Client.call cp2 Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "fenced primary must still answer reads");
  Client.close cp2;
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* ----------------------------------------------------------------- *)
(* Snapshot bootstrap when the WAL history is gone *)

let test_bootstrap_after_prune () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  (* Tiny rotation threshold: 20 mutations force several checkpoint
     rotations, and the pruner deletes all but the newest generations
     — a late-joining replica cannot tail from generation 0. *)
  let ppid, pport = fork_server ~dir:dir_p ~checkpoint_records:4 ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let stream = make_stream ~seed:61 ~count:20 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let cr = Client.connect ~port:rport () in
  let kvs = wait_replica_applied ~what:"bootstrap catch-up" cp cr in
  Alcotest.(check bool) "caught up via snapshot transfer" true
    (int_of_string (stat kvs "replication_snapshots_installed") >= 1);
  check_serves_oracle ~what:"replica after pruned-WAL bootstrap" cr (oracle_after stream);
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* A bootstrap ships the primary's checkpoint file, which the replica
   checks, installs and keeps byte for byte as its own newest
   checkpoint.  The first replication link flips one bit inside that
   payload: the replica must refuse it (an apply error), bootstrap
   again, and converge. *)
let test_bootstrap_checks_and_keeps_file () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  (* A fresh subscriber's first frame is the snapshot; byte 1000 of
     the link lies inside its checkpoint payload. *)
  let hub_faults =
    let attaches = Atomic.make 0 in
    fun (_ : int) ->
      if Atomic.fetch_and_add attaches 1 = 0 then
        Some (Faults.create (Faults.Flip_bit_after_bytes 1000))
      else None
  in
  let ppid, pport = fork_server ~dir:dir_p ~hub_faults ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let stream = make_stream ~seed:81 ~count:12 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  (* The newest checkpoint now holds every write: it is what each
     bootstrap ships, and no record follows it. *)
  (match Client.call cp Wire.Snapshot with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "primary refused the snapshot request");
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let cr = Client.connect ~port:rport () in
  let kvs = wait_replica_applied ~what:"bootstrap after a refused snapshot" cp cr in
  Alcotest.(check bool) "the flipped snapshot was refused" true
    (int_of_string (stat kvs "repl_apply_errors") >= 1);
  Alcotest.(check string) "one snapshot installed" "1" (stat kvs "replication_snapshots_installed");
  Alcotest.(check bool) "install timed" true
    (float_of_string (stat kvs "replication_snapshot_install_ms") > 0.0);
  check_serves_oracle ~what:"replica after a refused snapshot" cr (oracle_after stream);
  let newest dir =
    let seq = List.fold_left max 0 (Checkpoint.checkpoint_seqs dir) in
    In_channel.with_open_bin (Checkpoint.checkpoint_file ~dir ~seq) In_channel.input_all
  in
  Alcotest.(check bool) "replica's newest checkpoint is the shipped file" true
    (String.equal (newest dir_p) (newest dir_r));
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* An index whose checkpoint passes 16 MiB on its payloads: 300 items
   of 60 KiB each under one element.  Compact checkpoints are about a
   third of the text's bytes, so an XMark index would need scale 20,000
   or so to get there. *)
let payload_heavy () =
  let b = Dkindex_graph.Builder.create () in
  let doc = Dkindex_graph.Builder.add_child b ~parent:(Dkindex_graph.Builder.root b) "doc" in
  for i = 0 to 299 do
    let item = Dkindex_graph.Builder.add_child b ~parent:doc "item" in
    let text = String.make (60 * 1024) (Char.chr (97 + (i mod 26))) in
    ignore (Dkindex_graph.Builder.add_value ~text b ~parent:item)
  done;
  Dk_index.build (Dkindex_graph.Builder.build b) ~reqs:[ ("item", 1) ]

(* One Rep_snapshot frame carries the whole checkpoint, here larger
   than the 16 MiB bound on requests: the replica must still install
   it and agree with its primary's digest. *)
let test_bootstrap_large_checkpoint () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~base:payload_heavy ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let newest_size dir =
    let seq = List.fold_left max 0 (Checkpoint.checkpoint_seqs dir) in
    (Unix.stat (Checkpoint.checkpoint_file ~dir ~seq)).Unix.st_size
  in
  Alcotest.(check bool) "the checkpoint exceeds the request bound" true
    (newest_size dir_p > Wire.max_frame_default);
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let cp = Client.connect ~port:pport () and cr = Client.connect ~port:rport () in
  let kvs = wait_replica_applied ~what:"bootstrap from a checkpoint over 16 MiB" cp cr in
  Alcotest.(check string) "one snapshot installed" "1" (stat kvs "replication_snapshots_installed");
  let digest c =
    match Client.call c Wire.Digest_request with
    | Wire.Digest_reply { seq; offset; n_nodes; root; _ } -> (seq, offset, n_nodes, root)
    | _ -> Alcotest.fail "expected Digest_reply"
  in
  let pseq, poff, pn, proot = digest cp and rseq, roff, rn, rroot = digest cr in
  Alcotest.(check (pair int int)) "same position" (pseq, poff) (rseq, roff);
  Alcotest.(check int) "same node count" pn rn;
  Alcotest.(check int) "same root digest" proot rroot;
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* A replica answers no query until it has installed a snapshot: here
   every bootstrap arrives with a flipped bit and is refused, so the
   replica, connected and in contact, still serves only its one-node
   placeholder.  Ping, Stats and Digest_request stay answerable. *)
let test_unbootstrapped_replica_refuses_reads () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let hub_faults (_ : int) = Some (Faults.create (Faults.Flip_bit_after_bytes 1000)) in
  let ppid, pport = fork_server ~dir:dir_p ~hub_faults ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let cr = Client.connect ~port:rport () in
  let kvs =
    wait_for ~what:"two refused snapshots" cr (fun kvs ->
        int_of_string (stat kvs "repl_apply_errors") >= 2)
  in
  Alcotest.(check string) "nothing installed" "0" (stat kvs "replication_snapshots_installed");
  Alcotest.(check string) "reported stale" "true" (stat kvs "replication_stale");
  (match Client.call cr (Wire.Query_path { flags = { no_cache = false }; labels = [ "l0" ] }) with
  | Wire.Error_reply { code = `Stale; _ } -> ()
  | Wire.Result r ->
    Alcotest.failf "answered from the placeholder: %d nodes, generation %d"
      (Array.length r.Wire.nodes) r.Wire.generation
  | _ -> Alcotest.fail "expected a Stale refusal");
  (match Client.call cr Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "Ping must stay answerable");
  (match Client.call cr Wire.Digest_request with
  | Wire.Digest_reply _ -> ()
  | _ -> Alcotest.fail "Digest_request must stay answerable");
  shutdown cr rpid;
  pids := [ ppid ];
  kill_quiet ppid;
  pids := []

(* A fresh replica's placeholder index is not a checkpoint.  Launched
   against a port nothing listens on, the replica serves (Stats
   answers) and its directory holds no checkpoint file.  Relaunched
   over the same directory against a live primary, its first install
   is its only checkpoint, and it serves the primary's answers. *)
let checkpoint_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"checkpoint-" f)
  |> List.sort compare

let test_fresh_replica_writes_no_placeholder () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let dead_port =
    let s = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.bind s (ADDR_INET (Unix.inet_addr_loopback, 0));
    let p = match Unix.getsockname s with ADDR_INET (_, p) -> p | _ -> assert false in
    Unix.close s;
    p
  in
  let rpid, rport = fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:dead_port ()) () in
  pids := [ rpid ];
  let cr = Client.connect ~port:rport () in
  Alcotest.(check string) "nothing installed" "0"
    (stat (stats cr) "replication_snapshots_installed");
  Alcotest.(check (list string)) "no checkpoint before the first install" []
    (checkpoint_files dir_r);
  shutdown cr rpid;
  pids := [];
  let ppid, pport = fork_server ~dir:dir_p () in
  pids := [ ppid ];
  let rpid, rport = fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) () in
  pids := [ ppid; rpid ];
  let cr = Client.connect ~port:rport () in
  ignore
    (wait_for ~what:"the first install" cr (fun kvs ->
         stat kvs "replication_snapshots_installed" = "1" && replica_caught_up kvs));
  Alcotest.(check int) "the install is the only checkpoint" 1
    (List.length (checkpoint_files dir_r));
  check_serves_oracle ~what:"after the first install" cr (build_base ());
  shutdown cr rpid;
  pids := [ ppid ];
  kill_quiet ppid;
  pids := []

(* ----------------------------------------------------------------- *)
(* Torn replication streams: reconnect and converge *)

let test_torn_stream_reconnects () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  (* The first two replication connections tear mid-frame after ~1500
     bytes (the snapshot is bigger than that, so the bootstrap itself
     is torn); the third connection is clean.  The closure runs inside
     the forked primary. *)
  let hub_faults =
    let attaches = Atomic.make 0 in
    fun (_ : int) ->
      if Atomic.fetch_and_add attaches 1 < 2 then
        Some (Faults.create (Faults.Drop_after_bytes 1500))
      else None
  in
  let ppid, pport = fork_server ~dir:dir_p ~hub_faults ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let stream = make_stream ~seed:71 ~count:15 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true ~replica_of:(rconfig ~port:pport ()) ()
  in
  pids := [ ppid; rpid ];
  let cr = Client.connect ~port:rport () in
  let kvs = wait_replica_applied ~what:"catch-up through torn streams" cp cr in
  Alcotest.(check bool) "replica reconnected at least twice" true
    (int_of_string (stat kvs "replication_reconnects") >= 2);
  check_serves_oracle ~what:"replica after torn streams" cr (oracle_after stream);
  shutdown cr rpid;
  pids := [ ppid ];
  shutdown cp ppid;
  pids := []

(* ----------------------------------------------------------------- *)
(* Auto-promotion on heartbeat timeout *)

let test_auto_promotion () =
  let dir_p = temp_dir () and dir_r = temp_dir () in
  let pids = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := [ ppid ];
  let rpid, rport =
    fork_server ~dir:dir_r ~empty:true
      ~replica_of:(rconfig ~auto_promote:true ~failover_timeout_s:1.0 ~port:pport ())
      ()
  in
  pids := [ ppid; rpid ];
  let stream = make_stream ~seed:81 ~count:12 in
  let cp = Client.connect ~port:pport () in
  send_stream cp stream;
  let cr = Client.connect ~port:rport () in
  ignore (wait_replica_applied ~what:"catch-up before primary death" cp cr);
  Unix.kill ppid Sys.sigkill;
  ignore (Unix.waitpid [] ppid);
  pids := [ rpid ];
  (* The watchdog fires after ~1 s of silence and the replica promotes
     itself. *)
  let kvs =
    wait_for ~what:"auto-promotion" cr (fun kvs ->
        stat kvs "role" = "primary")
  in
  Alcotest.(check string) "auto-promoted epoch" "1" (stat kvs "epoch");
  check_serves_oracle ~what:"auto-promoted replica" cr (oracle_after stream);
  (match Client.call cr (Wire.Add_edge { u = 1; v = 2 }) with
  | Wire.Ok_reply { epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "auto-promoted replica must accept writes");
  shutdown cr rpid;
  pids := []

let () =
  Alcotest.run "replication"
    [
      ( "replication",
        [
          Alcotest.test_case "replica converges bit-for-bit, redirects writes" `Quick
            test_convergence;
          Alcotest.test_case "SIGKILL primary; promoted replica keeps every ack" `Quick
            test_failover_promote;
          Alcotest.test_case "promotion refused while its epoch cannot be persisted" `Quick
            test_promote_needs_durable_epoch;
          Alcotest.test_case "deposed primary is fenced; cluster resumes on the promoted replica" `Quick
            test_fencing_deposed_primary;
          Alcotest.test_case "late replica bootstraps over a pruned WAL" `Quick
            test_bootstrap_after_prune;
          Alcotest.test_case "bootstrap refuses a flipped snapshot, keeps the shipped file" `Quick
            test_bootstrap_checks_and_keeps_file;
          Alcotest.test_case "bootstrap from a checkpoint over 16 MiB" `Quick
            test_bootstrap_large_checkpoint;
          Alcotest.test_case "a replica that installed nothing refuses reads" `Quick
            test_unbootstrapped_replica_refuses_reads;
          Alcotest.test_case "a fresh replica checkpoints no placeholder" `Quick
            test_fresh_replica_writes_no_placeholder;
          Alcotest.test_case "torn streams reconnect and still converge" `Quick
            test_torn_stream_reconnects;
          Alcotest.test_case "auto-promotion after heartbeat silence" `Quick
            test_auto_promotion;
        ] );
    ]
