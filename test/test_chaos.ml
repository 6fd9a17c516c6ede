(* Chaos tests for dkserve: the nemesis proxy, the acknowledged-history
   checker, read-path fault injection, and the overload defenses.

   As in test_replication, every server (and every chaos proxy) runs in
   a forked child process, so a test can SIGKILL it like a real crash,
   and the parent drives plain blocking clients.

   The flagship cases fork a primary and two replicas behind seeded
   chaos proxies, drive a recorded operation history through the
   turbulence, and then require the checker's verdict: every
   acknowledged write present in the final converged state, reads
   monotonic per (connection, member), staleness bounded, epoch
   fencing respected.

   The checker itself is checked: seeded violations (a lost
   acknowledged write, an over-stale read, a generation that went
   backwards, a read that unsaw an edge, a post-fencing ack) must each
   be rejected. *)

open Dkindex_core
module Data_graph = Dkindex_graph.Data_graph
module Label = Dkindex_graph.Label
module Container = Dkindex_graph.Container
module Wire = Dkindex_server.Wire
module Server = Dkindex_server.Server
module Client = Dkindex_server.Client
module Wal = Dkindex_server.Wal
module Checkpoint = Dkindex_server.Checkpoint
module Replication = Dkindex_server.Replication
module Faults = Dkindex_server.Faults
module Chaos = Dkindex_server.Chaos
module History = Dkindex_server.History
module Obuf = Dkindex_server.Obuf
module Prng = Dkindex_datagen.Prng

let to_alcotest = QCheck_alcotest.to_alcotest
let now () = Unix.gettimeofday ()

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ----------------------------------------------------------------- *)
(* Scratch directories *)

let temp_dir () =
  let path = Filename.temp_file "dkchaos" "" in
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
(* Deterministic base index (same seeds as test_replication) *)

let build_base () =
  let g =
    Dkindex_datagen.Random_graph.graph ~seed:23 ~nodes:300 ~n_labels:5 ~extra_edges:120 ()
  in
  Dk_index.build g ~reqs:[ ("l0", 2); ("l1", 3); ("l2", 2) ]

let empty_index () =
  let pool = Label.Pool.create () in
  let root = Label.Pool.intern pool Label.root_name in
  let g = Data_graph.make ~pool ~labels:[| root |] ~edges:[] () in
  Dk_index.build g ~reqs:[]

(* Node pairs absent from the base graph, pairwise distinct — the write
   stream of a nemesis schedule, and therefore exactly the edges whose
   durability the checker will judge. *)
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
(* Forked servers and proxies *)

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
    ?(empty = false) ?hub_heartbeat_s ?(config_f = fun c -> c) ~dir () =
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

(* A chaos proxy in its own process: Chaos.run blocks, so it lives in
   a child and dies by SIGKILL at cleanup. *)
let fork_chaos ~seed ~upstream spec_str =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let status =
      try
        let spec =
          match Chaos.spec_of_string spec_str with
          | Ok s -> s
          | Error m -> failwith m
        in
        let px = Chaos.create ~seed ~upstream spec in
        let line = string_of_int (Chaos.port px) ^ "\n" in
        ignore (Unix.write_substring w line 0 (String.length line));
        Unix.close w;
        Chaos.run px;
        0
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

let stats c =
  match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs -> kvs
  | _ -> Alcotest.fail "expected Stats_reply"

let stat kvs key = Option.value (List.assoc_opt key kvs) ~default:""

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

(* ----------------------------------------------------------------- *)
(* The recorded driver: writes with every outcome classified, each
   followed by a probe of a random previously-acknowledged edge. *)

let classify_write = function
  | Wire.Ok_reply { epoch; _ } -> `Acked epoch
  | Wire.Error_reply { message; _ } -> `Refused message
  | Wire.Overloaded -> `Refused "overloaded"
  | Wire.Read_only -> `Refused "read-only"
  | Wire.Not_primary _ -> `Refused "not primary"
  | Wire.Fenced { epoch } -> `Refused (Printf.sprintf "fenced at epoch %d" epoch)
  | _ -> `Refused "unexpected response kind"

let probe_outcome ~endpoint c u v =
  match Client.call c (Wire.Has_edge { u; v }) with
  | Wire.Edge_reply { present; generation; age_ms } ->
    History.Read_ok
      { present; generation; age_ms; endpoint; epoch = Client.server_epoch c }
  | Wire.Error_reply { message; _ } -> History.Refused message
  | _ -> History.Refused "unexpected response kind"
  | exception Client.Error e -> History.Ambiguous (Client.error_to_string e)

let drive ~rec_ ~conn ~rng c edges =
  let seq = ref 0 in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let emit op invoked outcome =
    History.record rec_
      {
        History.conn;
        seq = next_seq ();
        op;
        invoked_at = invoked;
        completed_at = now ();
        outcome;
      }
  in
  let acked = ref [] in
  let nacked = ref 0 in
  List.iter
    (fun (u, v) ->
      let inv = now () in
      let outcome =
        match Client.call c (Wire.Add_edge { u; v }) with
        | resp -> (
          match classify_write resp with
          | `Acked epoch ->
            acked := (u, v) :: !acked;
            incr nacked;
            History.Acked { epoch }
          | `Refused r -> History.Refused r)
        | exception Client.Error e -> History.Ambiguous (Client.error_to_string e)
      in
      emit (History.Add_edge { u; v }) inv outcome;
      match !acked with
      | [] -> ()
      | l ->
        let pu, pv = List.nth l (Prng.int rng (List.length l)) in
        let inv = now () in
        emit (History.Probe { u = pu; v = pv }) inv (probe_outcome ~endpoint:0 c pu pv))
    edges;
  !nacked

let probe_all ~rec_ ~conn ~endpoint c edges =
  List.iteri
    (fun i (u, v) ->
      let inv = now () in
      History.record rec_
        {
          History.conn;
          seq = i;
          op = History.Probe { u; v };
          invoked_at = inv;
          completed_at = now ();
          outcome = probe_outcome ~endpoint c u v;
        })
    edges

(* The convergence sweep runs on a direct connection — a partitioned
   proxy must not be able to fake a lost write. *)
let final_sweep c edges =
  List.map
    (fun (u, v) ->
      match Client.call c (Wire.Has_edge { u; v }) with
      | Wire.Edge_reply { present; _ } -> (u, v, present)
      | _ -> Alcotest.fail "final sweep probe failed")
    edges

let require_consistent ~name ~staleness_bound_ms ~final rec_ =
  let report = History.check ~staleness_bound_ms ~final (History.entries rec_) in
  if not report.History.ok then
    Alcotest.fail (name ^ ":\n" ^ History.report_to_string report);
  report

(* ----------------------------------------------------------------- *)
(* 1. Nemesis spec round-trip *)

(* Delay/jitter in half-milliseconds and event times in quarter-seconds
   are dyadic, so spec_to_string's shortest-decimal rendering is exact
   and the round-trip can demand structural equality. *)
let spec_gen =
  let open QCheck.Gen in
  let half = map (fun n -> float_of_int n *. 0.5) (int_bound 20) in
  let quarter = map (fun n -> float_of_int n *. 0.25) (int_bound 40) in
  let conn_at = pair (int_range 1 8) (int_bound 100_000) in
  let event_gen =
    oneof
      [
        map2 (fun a d -> { Chaos.at_s = a; action = Chaos.Partition d }) quarter quarter;
        map2 (fun a d -> { Chaos.at_s = a; action = Chaos.Stall_all d }) quarter quarter;
        map (fun a -> { Chaos.at_s = a; action = Chaos.Reset_all }) quarter;
      ]
  in
  map2
    (fun (delay_ms, jitter_ms, bandwidth_bps) (truncate, reset, stall, events) ->
      { Chaos.delay_ms; jitter_ms; bandwidth_bps; truncate; reset; stall; events })
    (triple half half (oneof [ return 0; int_range 1 1_000_000 ]))
    (quad
       (list_size (int_bound 3) conn_at)
       (list_size (int_bound 3) conn_at)
       (list_size (int_bound 3) conn_at)
       (list_size (int_bound 3) event_gen))

let spec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"chaos: nemesis spec round-trips"
    (QCheck.make ~print:Chaos.spec_to_string spec_gen)
    (fun sp ->
      match Chaos.spec_of_string (Chaos.spec_to_string sp) with
      | Ok sp' -> sp' = sp
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let test_spec_errors () =
  List.iter
    (fun s ->
      match Chaos.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S must be rejected" s))
    [ "delay"; "bw:0"; "bw:-3"; "truncate:0@5"; "reset:1"; "stall:1@x"; "partition:2";
      "wat:3"; "delay:-1"; "reset-all:oops" ];
  match Chaos.spec_of_string "" with
  | Ok sp -> Alcotest.(check bool) "empty spec = no faults" true (sp = Chaos.no_faults)
  | Error e -> Alcotest.fail e

(* ----------------------------------------------------------------- *)
(* 2. The checker is checked: a simulated valid history passes, and
   each seeded violation is rejected. *)

type sim = { sentries : History.entry list; sfinal : (int * int * bool) list }

let sim_bound_ms = 400

let simulate seed =
  let rng = Prng.create ~seed in
  let t = ref 0.0 in
  let gen = [| 1; 1 |] in
  let applied = Hashtbl.create 64 in
  let replica = Hashtbl.create 64 in
  let attempted = Hashtbl.create 64 in
  let epoch = ref 0 in
  let seqs = Array.make 8 0 in
  let out = ref [] in
  let emit conn op outcome =
    t := !t +. 1.0;
    let s = seqs.(conn) in
    seqs.(conn) <- s + 1;
    out :=
      {
        History.conn;
        seq = s;
        op;
        invoked_at = !t;
        completed_at = !t +. 0.5;
        outcome;
      }
      :: !out
  in
  let write conn (u, v) kind =
    Hashtbl.replace attempted (u, v) ();
    match kind with
    | `Ack ->
      Hashtbl.replace applied (u, v) ();
      gen.(0) <- gen.(0) + 1;
      emit conn (History.Add_edge { u; v }) (History.Acked { epoch = !epoch })
    | `Refuse -> emit conn (History.Add_edge { u; v }) (History.Refused "overloaded")
    | `Ambiguous applied_too ->
      if applied_too then begin
        Hashtbl.replace applied (u, v) ();
        gen.(0) <- gen.(0) + 1
      end;
      emit conn (History.Add_edge { u; v }) (History.Ambiguous "timed out")
  in
  let read conn endpoint (u, v) =
    let present = Hashtbl.mem (if endpoint = 0 then applied else replica) (u, v) in
    let age = if endpoint = 0 then 0 else Prng.int rng sim_bound_ms in
    emit conn (History.Probe { u; v })
      (History.Read_ok { present; generation = gen.(endpoint); age_ms = age; endpoint; epoch = !epoch })
  in
  let sync_replica () =
    Hashtbl.iter (fun k () -> Hashtbl.replace replica k ()) applied;
    gen.(1) <- gen.(0)
  in
  (* forced prefix: material every corruption needs *)
  write 1 (1000, 1) `Ack;
  read 1 0 (1000, 1);
  read 1 0 (1000, 1);
  for _ = 1 to 60 do
    let conn = 1 + Prng.int rng 3 in
    let e = (Prng.int rng 50, Prng.int rng 50) in
    match Prng.int rng 10 with
    | 0 | 1 | 2 -> write conn e `Ack
    | 3 -> write conn e `Refuse
    | 4 -> write conn e (`Ambiguous (Prng.bool rng 0.5))
    | 5 -> sync_replica ()
    | 6 | 7 -> read conn 0 e
    | _ -> read conn 1 e
  done;
  (* failover: everything later runs at epoch 1 *)
  epoch := 1;
  write 1 (1001, 1) `Ack;
  read 1 0 (1001, 1);
  let sfinal =
    Hashtbl.fold (fun (u, v) () acc -> (u, v, Hashtbl.mem applied (u, v)) :: acc) attempted []
  in
  { sentries = List.rev !out; sfinal }

let check_sim { sentries; sfinal } =
  History.check ~staleness_bound_ms:sim_bound_ms ~final:sfinal sentries

let last_time entries = List.fold_left (fun a e -> Float.max a e.History.completed_at) 0.0 entries

(* Each corruption returns the history the checker must reject, plus
   the violation text it must produce. *)
let corruptions =
  [
    ( "lost acknowledged write",
      fun sim ->
        {
          sim with
          sfinal =
            List.map
              (fun (u, v, p) -> if (u, v) = (1000, 1) then (u, v, false) else (u, v, p))
              sim.sfinal;
        } );
    ( "unprobed acknowledged write",
      fun sim ->
        { sim with sfinal = List.filter (fun (u, v, _) -> (u, v) <> (1000, 1)) sim.sfinal } );
    ( "staleness bound exceeded",
      fun sim ->
        let flipped = ref false in
        let sentries =
          List.map
            (fun e ->
              match e.History.outcome with
              | History.Read_ok { present; generation; age_ms = _; endpoint; epoch }
                when not !flipped ->
                flipped := true;
                {
                  e with
                  History.outcome =
                    History.Read_ok
                      { present; generation; age_ms = 1_000_000; endpoint; epoch };
                }
              | _ -> e)
            sim.sentries
        in
        { sim with sentries } );
    ( "non-monotonic read",
      fun sim ->
        (* the forced prefix is entries 0,1,2 on conn 1: write, read, read *)
        let nread = ref 0 in
        let sentries =
          List.map
            (fun e ->
              match e.History.outcome with
              | History.Read_ok { present; generation = _; age_ms; endpoint; epoch }
                when e.History.conn = 1 && !nread < 2 ->
                incr nread;
                if !nread = 2 then
                  {
                    e with
                    History.outcome =
                      History.Read_ok { present; generation = 0; age_ms; endpoint; epoch };
                  }
                else e
              | _ -> e)
            sim.sentries
        in
        { sim with sentries } );
    ( "read went backwards",
      fun sim ->
        let t = last_time sim.sentries +. 1.0 in
        let e =
          {
            History.conn = 1;
            seq = 100_000;
            op = History.Probe { u = 1000; v = 1 };
            invoked_at = t;
            completed_at = t +. 0.5;
            outcome =
              History.Read_ok
                { present = false; generation = 1_000_000; age_ms = 0; endpoint = 0; epoch = 1 };
          }
        in
        { sim with sentries = sim.sentries @ [ e ] } );
    ( "post-fencing ack",
      fun sim ->
        let t = last_time sim.sentries +. 1.0 in
        let e =
          {
            History.conn = 1;
            seq = 100_000;
            op = History.Add_edge { u = 2000; v = 2 };
            invoked_at = t;
            completed_at = t +. 0.5;
            outcome = History.Acked { epoch = 0 };
          }
        in
        { sentries = sim.sentries @ [ e ]; sfinal = (2000, 2, true) :: sim.sfinal } );
  ]

let checker_checks =
  QCheck.Test.make ~count:40 ~name:"history: checker accepts valid, rejects seeded violations"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let clean = check_sim (simulate seed) in
      if not clean.History.ok then
        QCheck.Test.fail_reportf "clean history rejected:\n%s"
          (History.report_to_string clean);
      List.for_all
        (fun (expect, corrupt) ->
          let r = check_sim (corrupt (simulate seed)) in
          if r.History.ok then
            QCheck.Test.fail_reportf "seeded %S not caught" expect
          else if not (List.exists (contains ~sub:expect) r.History.violations) then
            QCheck.Test.fail_reportf "seeded %S caught with wrong message:\n%s" expect
              (History.report_to_string r)
          else true)
        corruptions)

let test_history_roundtrip () =
  let sim = simulate 42 in
  let tricky =
    {
      History.conn = 7;
      seq = 0;
      op = History.Add_edge { u = 1; v = 2 };
      invoked_at = 1.5;
      completed_at = 2.0;
      outcome = History.Ambiguous "conn reset: 50% done\tthen\nsilence";
    }
  in
  let entries = sim.sentries @ [ tricky ] in
  let path = Filename.temp_file "dkhist" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      History.save ~entries ~final:sim.sfinal path;
      let entries', final' = History.load path in
      Alcotest.(check int) "entry count" (List.length entries) (List.length entries');
      Alcotest.(check bool) "entries round-trip" true (entries = entries');
      Alcotest.(check bool) "final round-trips" true (sim.sfinal = final'))

(* ----------------------------------------------------------------- *)
(* 3. Read-path fault injection (Faults.read satellite) *)

let mutation_eq (a : Wal.mutation) b = a = b

let test_wal_read_faults () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let path = Filename.concat dir "wal-test.log" in
  let w = Wal.create ~sync:Wal.Always path in
  for i = 0 to 19 do
    Wal.append w (Wal.Add_edge { u = i; v = i + 1 })
  done;
  Wal.close w;
  let clean = Wal.replay path in
  Alcotest.(check int) "clean replay: all records" 20 (List.length clean.Wal.mutations);
  Alcotest.(check int) "clean replay: no torn tail" 0 clean.Wal.torn_bytes;
  (* short reads and EINTR storms are absorbed: identical replay *)
  let short = Wal.replay ~faults:(Faults.create (Faults.Short_read 3)) path in
  Alcotest.(check bool) "short reads: same mutations" true
    (List.for_all2 mutation_eq clean.Wal.mutations short.Wal.mutations);
  let eintr = Wal.replay ~faults:(Faults.create (Faults.Eintr_reads 5)) path in
  Alcotest.(check bool) "EINTR storm: same mutations" true
    (List.for_all2 mutation_eq clean.Wal.mutations eintr.Wal.mutations);
  (* a flipped bit lands in the CRC check: replay truncates to a prefix *)
  let flip =
    Wal.replay ~faults:(Faults.create (Faults.Flip_bit_after_bytes (clean.Wal.valid_bytes / 2))) path
  in
  let n = List.length flip.Wal.mutations in
  Alcotest.(check bool) "bit flip: replay truncated" true (n < 20);
  Alcotest.(check bool) "bit flip: torn tail reported" true (flip.Wal.torn_bytes > 0);
  List.iteri
    (fun i m ->
      Alcotest.(check bool) "bit flip: prefix property" true
        (mutation_eq m (List.nth clean.Wal.mutations i)))
    flip.Wal.mutations

let test_checkpoint_read_faults () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let write_cp seq idx =
    let path = Filename.concat dir (Printf.sprintf "checkpoint-%09d.index" seq) in
    let oc = open_out_bin path in
    output_string oc (Index_serial.to_string idx);
    close_out oc
  in
  let base = build_base () in
  let newer = Checkpoint.apply_mutation base (Wal.Add_edge { u = 1; v = 7 }) in
  write_cp 0 base;
  write_cp 1 newer;
  let r = Checkpoint.recover ~dir () in
  Alcotest.(check int) "clean recovery loads the newest" 1 r.Checkpoint.checkpoint_seq;
  Alcotest.(check int) "clean recovery: no fallback" 0 r.Checkpoint.fallback_checkpoints;
  (* a bit flip in the newest snapshot's header makes it unloadable;
     recovery falls back one generation instead of raising *)
  let r' =
    Checkpoint.recover ~read_faults:(Faults.create (Faults.Flip_bit_after_bytes 3)) ~dir ()
  in
  Alcotest.(check int) "fell back one generation" 1 r'.Checkpoint.fallback_checkpoints;
  Alcotest.(check int) "older checkpoint loaded" 0 r'.Checkpoint.checkpoint_seq;
  Alcotest.(check bool) "an index was recovered" true (r'.Checkpoint.index <> None)

let test_container_read_injector () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Container.read_injector := Unix.read;
      rm_rf dir)
  @@ fun () ->
  let path = Filename.concat dir "g.dkc" in
  let g = Index_graph.data (build_base ()) in
  Container.save_graph g path;
  let n = Data_graph.n_nodes g in
  Alcotest.(check int) "clean open" n
    (Data_graph.n_nodes (Container.open_graph ~verify:true path));
  (* short reads are absorbed by the read loop *)
  (Container.read_injector := fun fd b off len -> Unix.read fd b off (min len 7));
  Alcotest.(check int) "short-read open" n
    (Data_graph.n_nodes (Container.open_graph ~verify:true path));
  (* EINTR storms are retried *)
  let calls = ref 0 in
  (Container.read_injector :=
     fun fd b off len ->
       incr calls;
       if !calls mod 3 = 1 then raise (Unix.Unix_error (Unix.EINTR, "read", "injected"));
       Unix.read fd b off len);
  Alcotest.(check int) "EINTR open" n
    (Data_graph.n_nodes (Container.open_graph ~verify:true path));
  (* a flipped bit in the header region fails validation, not silently *)
  let seen = ref 0 and tripped = ref false in
  (Container.read_injector :=
     fun fd b off len ->
       let k = Unix.read fd b off len in
       (if (not !tripped) && k > 0 && !seen + k > 40 then begin
          let i = min (off + max 0 (40 - !seen)) (off + k - 1) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          tripped := true
        end);
       seen := !seen + k;
       k);
  (match Container.open_graph ~verify:true path with
  | _ -> Alcotest.fail "corrupt container must not open"
  | exception Container.Error _ -> ());
  Container.read_injector := Unix.read

(* ----------------------------------------------------------------- *)
(* 4. retry_writes:false — an ambiguous write is never silently resent *)

let fake_server_reply fd id resp =
  let ob = Obuf.create 256 in
  Wire.encode_response ob ~id resp;
  let s = Obuf.contents ob in
  ignore (Unix.write_substring fd s 0 (String.length s))

let fake_server_read fd =
  match Wire.read_frame ~read:(fun b o l -> Unix.read fd b o l) () with
  | `Frame p -> ( match Wire.decode_request p with Ok d -> Some d | Error _ -> None)
  | `Eof | `Oversized _ -> None
  | exception _ -> None

let hello_reply = Wire.Hello_reply { version = Wire.version; epoch = 0; role = Wire.Primary }

(* A fake server that drops the first Add_edge after receiving it —
   sent but unacknowledged, the ambiguous case — then watches the
   healed connection: any Add_edge arriving there is a silent resend
   and the child exits 9. *)
let fork_ambiguous_write_server () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let status =
      try
        let ls = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt ls Unix.SO_REUSEADDR true;
        Unix.bind ls (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen ls 4;
        let port =
          match Unix.getsockname ls with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> assert false
        in
        let line = string_of_int port ^ "\n" in
        ignore (Unix.write_substring w line 0 (String.length line));
        Unix.close w;
        let a, _ = Unix.accept ls in
        (match fake_server_read a with
        | Some { Wire.msg = Wire.Hello _; id } -> fake_server_reply a id hello_reply
        | _ -> Unix._exit 3);
        (match fake_server_read a with
        | Some { Wire.msg = Wire.Add_edge _; _ } -> Unix.close a
        | _ -> Unix._exit 4);
        let b, _ = Unix.accept ls in
        let rec serve () =
          match fake_server_read b with
          | None -> 0
          | Some { Wire.msg = Wire.Add_edge _; _ } -> 9
          | Some { Wire.msg = Wire.Hello _; id } ->
            fake_server_reply b id hello_reply;
            serve ()
          | Some { Wire.msg = Wire.Ping; id } ->
            fake_server_reply b id Wire.Pong;
            serve ()
          | Some { Wire.id; _ } ->
            fake_server_reply b id Wire.Pong;
            serve ()
        in
        serve ()
      with _ -> 2
    in
    Unix._exit status
  | pid ->
    Unix.close w;
    let port = read_port_line r in
    Unix.close r;
    (pid, port)

let test_write_never_resent () =
  let pid, port = fork_ambiguous_write_server () in
  Fun.protect ~finally:(fun () -> kill_quiet pid)
  @@ fun () ->
  (* a generous retry budget: reads would heal, but the write must not *)
  let c = Client.connect ~port ~attempts:3 ~retries:3 ~timeout_s:5.0 () in
  (match Client.call c (Wire.Add_edge { u = 1; v = 2 }) with
  | exception Client.Error (Client.Retryable _) -> ()
  | exception Client.Error (Client.Fatal m) ->
    Alcotest.fail ("ambiguous write surfaced as Fatal: " ^ m)
  | _ -> Alcotest.fail "ambiguous write must surface an error, not a response");
  (* the next (idempotent) op heals the connection; the fake server is
     now watching for a resent Add_edge *)
  (match Client.call c Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong after healing");
  Client.close c;
  let _, st = Unix.waitpid [] pid in
  match st with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED 9 -> Alcotest.fail "the un-acked write was silently resent"
  | _ -> Alcotest.fail "fake server died unexpectedly"

(* ----------------------------------------------------------------- *)
(* 5. Client circuit breaker *)

let test_circuit_breaker () =
  let dir = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir)
  @@ fun () ->
  let ppid, pport = fork_server ~dir () in
  pids := [ ppid ];
  let c =
    Client.connect ~port:pport ~attempts:1 ~timeout_s:0.5 ~breaker_threshold:2
      ~breaker_cooldown_s:0.3 ()
  in
  (match Client.call c Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  kill_quiet ppid;
  pids := [];
  let expect_retryable what =
    match Client.call c Wire.Ping with
    | exception Client.Error (Client.Retryable m) -> m
    | exception Client.Error (Client.Fatal m) -> Alcotest.fail (what ^ ": fatal: " ^ m)
    | _ -> Alcotest.fail (what ^ ": expected a Retryable failure")
  in
  ignore (expect_retryable "first failure");
  ignore (expect_retryable "second failure (trips the breaker)");
  Alcotest.(check bool) "breaker is open" true (Client.circuit_open c);
  Alcotest.(check int) "one open so far" 1 (Client.circuit_open_count c);
  let m = expect_retryable "fast failure" in
  Alcotest.(check bool) "fails fast with a breaker message" true
    (contains ~sub:"circuit breaker" m);
  (* after the cooldown, a half-open probe runs — and re-opens on failure *)
  Unix.sleepf 0.4;
  ignore (expect_retryable "half-open probe");
  Alcotest.(check int) "probe failure re-opened the breaker" 2 (Client.circuit_open_count c);
  Client.close c

(* ----------------------------------------------------------------- *)
(* 6. Overload defenses: slow-loris eviction and admission control *)

let test_slow_loris_eviction () =
  let dir = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir)
  @@ fun () ->
  let ppid, pport =
    fork_server
      ~config_f:(fun c -> { c with Server.read_progress_deadline_s = 0.5; idle_timeout_s = 0.0 })
      ~dir ()
  in
  pids := [ ppid ];
  let healthy = Client.connect ~port:pport ~timeout_s:10.0 () in
  (match Client.call healthy Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  (* the loris: two bytes of a length prefix, then silence *)
  let loris = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect loris (Unix.ADDR_INET (Unix.inet_addr_loopback, pport));
  ignore (Unix.write_substring loris "\000\000" 0 2);
  ignore
    (wait_for ~timeout_s:10.0 ~what:"slow-loris eviction" healthy (fun kvs ->
         int_of_string_opt (stat kvs "evicted_slow_clients") = Some 1));
  (* the evicted connection sees EOF (or a reset) *)
  Unix.setsockopt_float loris Unix.SO_RCVTIMEO 5.0;
  (match Unix.read loris (Bytes.create 1) 0 1 with
  | 0 -> ()
  | _ -> Alcotest.fail "loris connection must be closed"
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  Unix.close loris;
  (* well-behaved traffic kept working throughout *)
  (match Client.call healthy Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "healthy connection must survive the eviction");
  Client.close healthy

let test_admission_control () =
  let dir = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir)
  @@ fun () ->
  let ppid, pport = fork_server ~config_f:(fun c -> { c with Server.max_conns = 2 }) ~dir () in
  pids := [ ppid ];
  let c1 = Client.connect ~port:pport ~timeout_s:10.0 () in
  let c2 = Client.connect ~port:pport ~timeout_s:10.0 () in
  (match Client.call c1 Wire.Ping with Wire.Pong -> () | _ -> Alcotest.fail "c1 ping");
  (match Client.call c2 Wire.Ping with Wire.Pong -> () | _ -> Alcotest.fail "c2 ping");
  (* the third connection is shed with a typed Overloaded, then closed *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, pport));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  (match Wire.read_frame ~read:(fun b o l -> Unix.read fd b o l) () with
  | `Frame p -> (
    match Wire.decode_response p with
    | Ok { Wire.msg = Wire.Overloaded; _ } -> ()
    | Ok _ -> Alcotest.fail "expected Overloaded at admission"
    | Error e -> Alcotest.fail ("undecodable admission reply: " ^ e))
  | `Eof -> Alcotest.fail "expected an Overloaded frame before close"
  | `Oversized _ -> Alcotest.fail "oversized admission reply");
  (match Unix.read fd (Bytes.create 1) 0 1 with
  | 0 -> ()
  | _ -> Alcotest.fail "rejected connection must be closed after Overloaded"
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  Unix.close fd;
  let kvs = stats c1 in
  Alcotest.(check bool) "rejections counted" true
    (match int_of_string_opt (stat kvs "rejected_at_admission") with
    | Some n -> n >= 1
    | None -> false);
  (* the admitted connections are unharmed *)
  (match Client.call c2 Wire.Ping with Wire.Pong -> () | _ -> Alcotest.fail "c2 survives");
  Client.close c1;
  Client.close c2

(* ----------------------------------------------------------------- *)
(* 7. Nemesis schedules: primary + 2 replicas behind chaos proxies,
   each run ending checker-verified converged. *)

let run_schedule ~name ~seed ~client_spec ~repl_spec ~n_writes () =
  let dir_p = temp_dir () and dir_r1 = temp_dir () and dir_r2 = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r1;
      rm_rf dir_r2)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := ppid :: !pids;
  (* replicas tail the primary through their own chaos proxy *)
  let xpid, xport = fork_chaos ~seed:(seed * 7 + 1) ~upstream:("127.0.0.1", pport) repl_spec in
  pids := xpid :: !pids;
  let r1pid, r1port =
    fork_server ~dir:dir_r1 ~empty:true ~replica_of:(rconfig ~replica_id:1 ~port:xport ()) ()
  in
  pids := r1pid :: !pids;
  let r2pid, r2port =
    fork_server ~dir:dir_r2 ~empty:true ~replica_of:(rconfig ~replica_id:2 ~port:xport ()) ()
  in
  pids := r2pid :: !pids;
  (* the recorded client drives through its own chaos proxy *)
  let cxpid, cxport =
    fork_chaos ~seed:(seed * 7 + 2) ~upstream:("127.0.0.1", pport) client_spec
  in
  pids := cxpid :: !pids;
  let rec_ = History.recorder () in
  let rng = Prng.create ~seed in
  let edges = fresh_edges ~seed:(seed + 100) ~count:n_writes in
  let cx =
    Client.connect ~port:cxport ~attempts:4 ~retries:2 ~timeout_s:1.5 ~backoff_base_s:0.02
      ~backoff_max_s:0.25 ~seed ()
  in
  let nacked = drive ~rec_ ~conn:0 ~rng cx edges in
  (try Client.close cx with _ -> ());
  Alcotest.(check bool) (name ^ ": some writes were acknowledged") true (nacked > 0);
  (* converge and sweep over direct connections, bypassing the chaos *)
  let cp = Client.connect ~port:pport ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let cr1 = Client.connect ~port:r1port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let cr2 = Client.connect ~port:r2port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  ignore (wait_replica_applied ~what:(name ^ ": replica 1 catch-up") cp cr1);
  ignore (wait_replica_applied ~what:(name ^ ": replica 2 catch-up") cp cr2);
  probe_all ~rec_ ~conn:11 ~endpoint:1 cr1 edges;
  probe_all ~rec_ ~conn:12 ~endpoint:2 cr2 edges;
  let final = final_sweep cp edges in
  (* replica convergence: every successful replica read agrees with the
     final state (they were probed after catching up) *)
  let ftbl = Hashtbl.create 64 in
  List.iter (fun (u, v, p) -> Hashtbl.replace ftbl (u, v) p) final;
  List.iter
    (fun e ->
      match (e.History.op, e.History.outcome) with
      | History.Probe { u; v }, History.Read_ok { present; endpoint; _ }
        when e.History.conn >= 11 -> (
        match Hashtbl.find_opt ftbl (u, v) with
        | Some p ->
          if p <> present then
            Alcotest.fail
              (Printf.sprintf "%s: replica %d disagrees with the converged state on (%d,%d)"
                 name endpoint u v)
        | None -> ())
      | _ -> ())
    (History.entries rec_);
  let report = require_consistent ~name ~staleness_bound_ms:3_600_000 ~final rec_ in
  Alcotest.(check bool) (name ^ ": reads were checked") true (report.History.reads_checked > 0);
  Client.close cp;
  Client.close cr1;
  Client.close cr2

let test_nemesis_partition_heal () =
  run_schedule ~name:"partition-and-heal" ~seed:11
    ~client_spec:"delay:1~2,partition:0.4+1.5" ~repl_spec:"delay:1~1" ~n_writes:40 ()

let test_nemesis_truncate_stream () =
  run_schedule ~name:"truncate-mid-stream" ~seed:12 ~client_spec:"delay:1~1"
    ~repl_spec:"truncate:1@3000,truncate:2@5000" ~n_writes:30 ()

let test_nemesis_reset_storm () =
  run_schedule ~name:"reset-storm" ~seed:13
    ~client_spec:"delay:1~2,reset-all:0.3,reset-all:0.9" ~repl_spec:"delay:1~1" ~n_writes:40 ()

(* A two-second stall of the replication feed with a 300 ms staleness
   bound: mid-stall replica reads must be refused Stale rather than
   served over-stale, and the checker proves no served read ever
   exceeded the bound. *)
let test_nemesis_stall_staleness () =
  let dir_p = temp_dir () and dir_r1 = temp_dir () and dir_r2 = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r1;
      rm_rf dir_r2)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := ppid :: !pids;
  let t0 = now () in
  let xpid, xport = fork_chaos ~seed:99 ~upstream:("127.0.0.1", pport) "stall-all:4+2" in
  pids := xpid :: !pids;
  let r1pid, r1port =
    fork_server ~dir:dir_r1 ~empty:true
      ~replica_of:(rconfig ~replica_id:1 ~staleness_bound_s:0.3 ~port:xport ())
      ()
  in
  pids := r1pid :: !pids;
  let r2pid, r2port =
    fork_server ~dir:dir_r2 ~empty:true
      ~replica_of:(rconfig ~replica_id:2 ~staleness_bound_s:0.3 ~port:xport ())
      ()
  in
  pids := r2pid :: !pids;
  let rec_ = History.recorder () in
  let rng = Prng.create ~seed:4 in
  let edges = fresh_edges ~seed:4 ~count:12 in
  let cp = Client.connect ~port:pport ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let nacked = drive ~rec_ ~conn:0 ~rng cp edges in
  Alcotest.(check int) "all direct writes acked" 12 nacked;
  let cr1 = Client.connect ~port:r1port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let cr2 = Client.connect ~port:r2port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  ignore (wait_replica_applied ~what:"replica 1 catch-up before stall" cp cr1);
  ignore (wait_replica_applied ~what:"replica 2 catch-up before stall" cp cr2);
  (* probe both replicas through the stall window [t0+4, t0+6] *)
  let seq = ref 0 in
  let probe_one conn endpoint c =
    let u, v = List.nth edges (Prng.int rng (List.length edges)) in
    let inv = now () in
    History.record rec_
      {
        History.conn;
        seq = !seq;
        op = History.Probe { u; v };
        invoked_at = inv;
        completed_at = now ();
        outcome = probe_outcome ~endpoint c u v;
      }
  in
  while now () < t0 +. 6.5 do
    probe_one 11 1 cr1;
    probe_one 12 2 cr2;
    incr seq;
    Unix.sleepf 0.05
  done;
  let entries = History.entries rec_ in
  let nstale =
    List.length
      (List.filter
         (fun e ->
           match e.History.outcome with
           | History.Refused r -> contains ~sub:"staleness" r
           | _ -> false)
         entries)
  in
  Alcotest.(check bool) "mid-stall reads were refused as stale" true (nstale > 0);
  let nserved =
    List.length
      (List.filter
         (fun e ->
           match (e.History.outcome, e.History.conn) with
           | History.Read_ok _, c when c >= 11 -> true
           | _ -> false)
         entries)
  in
  Alcotest.(check bool) "some replica reads were served within the bound" true (nserved > 0);
  (* heal, converge, judge *)
  ignore (wait_replica_applied ~what:"replica 1 catch-up after heal" cp cr1);
  ignore (wait_replica_applied ~what:"replica 2 catch-up after heal" cp cr2);
  let final = final_sweep cp edges in
  ignore (require_consistent ~name:"stall-staleness" ~staleness_bound_ms:300 ~final rec_);
  Client.close cp;
  Client.close cr1;
  Client.close cr2

(* Heartbeats delayed past --failover-timeout: the replica's feed goes
   silent mid-run, it promotes itself to epoch 1, and a client carrying
   the new epoch fences the old primary — refusals, never a stale ack. *)
let test_nemesis_autopromote_fencing () =
  let dir_p = temp_dir () and dir_r1 = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r1)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := ppid :: !pids;
  let xpid, xport = fork_chaos ~seed:55 ~upstream:("127.0.0.1", pport) "stall-all:3+30" in
  pids := xpid :: !pids;
  let r1pid, r1port =
    fork_server ~dir:dir_r1 ~empty:true
      ~replica_of:(rconfig ~replica_id:1 ~auto_promote:true ~failover_timeout_s:0.7 ~port:xport ())
      ()
  in
  pids := r1pid :: !pids;
  let rec_ = History.recorder () in
  let rng = Prng.create ~seed:5 in
  let all_edges = fresh_edges ~seed:5 ~count:20 in
  let edges = List.filteri (fun i _ -> i < 15) all_edges in
  let edges2 = List.filteri (fun i _ -> i >= 15) all_edges in
  let cp = Client.connect ~port:pport ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let nacked = drive ~rec_ ~conn:0 ~rng cp edges in
  Alcotest.(check int) "epoch-0 writes all acked" 15 nacked;
  let cr1 = Client.connect ~port:r1port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  (* catch up if the stall hasn't hit yet; then the watchdog fires *)
  let pos = primary_wal_position cp in
  ignore
    (wait_for ~what:"replica catch-up or self-promotion" cr1 (fun kvs ->
         replica_applied_to pos kvs || stat kvs "role" = "primary"));
  let kvs = wait_for ~what:"auto-promotion" cr1 (fun kvs -> stat kvs "role" = "primary") in
  Alcotest.(check string) "self-promoted to epoch 1" "1" (stat kvs "epoch");
  (* observe the new epoch (a fresh client hellos at epoch 1)... *)
  let cr1b = Client.connect ~port:r1port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  Alcotest.(check int) "hello reports epoch 1" 1 (Client.server_epoch cr1b);
  probe_all ~rec_ ~conn:11 ~endpoint:1 cr1b edges;
  (* ...then writes against the deposed primary are fenced, not acked *)
  let cp2 = Client.connect ~port:pport ~epoch:1 ~attempts:5 ~timeout_s:10.0 () in
  List.iteri
    (fun i (u, v) ->
      let inv = now () in
      let outcome =
        match Client.call cp2 (Wire.Add_edge { u; v }) with
        | resp -> (
          match classify_write resp with
          | `Acked epoch -> History.Acked { epoch }
          | `Refused r -> History.Refused r)
        | exception Client.Error e -> History.Ambiguous (Client.error_to_string e)
      in
      History.record rec_
        {
          History.conn = 2;
          seq = i;
          op = History.Add_edge { u; v };
          invoked_at = inv;
          completed_at = now ();
          outcome;
        })
    edges2;
  let entries = History.entries rec_ in
  let nfenced =
    List.length
      (List.filter
         (fun e ->
           match e.History.outcome with
           | History.Refused r -> contains ~sub:"fenced" r
           | _ -> false)
         entries)
  in
  Alcotest.(check int) "every post-promotion write was fenced" (List.length edges2) nfenced;
  (* the deposed primary holds every epoch-0 ack; sweep it *)
  let final = final_sweep cp all_edges in
  ignore
    (require_consistent ~name:"autopromote-fencing" ~staleness_bound_ms:3_600_000 ~final rec_);
  Client.close cp;
  Client.close cp2;
  Client.close cr1;
  Client.close cr1b

(* Failover under a reset storm: ambiguous writes pile up while the
   client path is being aborted, the primary is then killed, a replica
   is promoted, and the checker verifies every epoch-0 and epoch-1 ack
   against the new primary's converged state. *)
let test_nemesis_failover_reset_storm () =
  let dir_p = temp_dir () and dir_r1 = temp_dir () in
  let pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_quiet !pids;
      rm_rf dir_p;
      rm_rf dir_r1)
  @@ fun () ->
  let ppid, pport = fork_server ~dir:dir_p ~hub_heartbeat_s:0.05 () in
  pids := ppid :: !pids;
  let xpid, xport = fork_chaos ~seed:66 ~upstream:("127.0.0.1", pport) "delay:1~1" in
  pids := xpid :: !pids;
  let r1pid, r1port =
    fork_server ~dir:dir_r1 ~empty:true ~replica_of:(rconfig ~replica_id:1 ~port:xport ()) ()
  in
  pids := r1pid :: !pids;
  let cxpid, cxport =
    fork_chaos ~seed:67 ~upstream:("127.0.0.1", pport) "delay:1~2,reset-all:0.3,reset-all:0.8"
  in
  pids := cxpid :: !pids;
  let rec_ = History.recorder () in
  let rng = Prng.create ~seed:6 in
  let all_edges = fresh_edges ~seed:6 ~count:40 in
  let edges = List.filteri (fun i _ -> i < 30) all_edges in
  let edges2 = List.filteri (fun i _ -> i >= 30) all_edges in
  let cx =
    Client.connect ~port:cxport ~attempts:4 ~retries:2 ~timeout_s:1.5 ~backoff_base_s:0.02
      ~backoff_max_s:0.25 ~seed:6 ()
  in
  let nacked = drive ~rec_ ~conn:0 ~rng cx edges in
  (try Client.close cx with _ -> ());
  Alcotest.(check bool) "some epoch-0 writes were acknowledged" true (nacked > 0);
  (* every applied write (acked or ambiguous) must reach the replica
     before the kill — this is the --wait-replication discipline *)
  let cp = Client.connect ~port:pport ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let cr1 = Client.connect ~port:r1port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  ignore (wait_replica_applied ~what:"replica catch-up before kill" cp cr1);
  Client.close cp;
  kill_quiet ppid;
  pids := List.filter (fun p -> p <> ppid) !pids;
  (match Client.call cr1 Wire.Promote_primary with
  | Wire.Ok_reply { epoch; _ } -> Alcotest.(check int) "promotion bumps the epoch" 1 epoch
  | Wire.Error_reply { message; _ } -> Alcotest.fail ("promote failed: " ^ message)
  | _ -> Alcotest.fail "expected Ok_reply for Promote_primary");
  (* epoch-1 traffic on the new primary *)
  let cr1b = Client.connect ~port:r1port ~attempts:5 ~retries:3 ~timeout_s:10.0 () in
  let nacked2 = drive ~rec_ ~conn:1 ~rng cr1b edges2 in
  Alcotest.(check int) "promoted primary accepts every write" (List.length edges2) nacked2;
  Alcotest.(check bool) "acks carry epoch 1" true
    (List.exists
       (fun e ->
         match e.History.outcome with History.Acked { epoch } -> epoch = 1 | _ -> false)
       (History.entries rec_));
  probe_all ~rec_ ~conn:11 ~endpoint:1 cr1b all_edges;
  let final = final_sweep cr1b all_edges in
  ignore
    (require_consistent ~name:"failover-reset-storm" ~staleness_bound_ms:3_600_000 ~final rec_);
  Client.close cr1;
  Client.close cr1b

(* ----------------------------------------------------------------- *)

let () =
  Alcotest.run "chaos"
    [
      ( "spec",
        [
          to_alcotest spec_roundtrip;
          Alcotest.test_case "malformed nemesis specs are rejected" `Quick test_spec_errors;
        ] );
      ( "checker",
        [
          to_alcotest checker_checks;
          Alcotest.test_case "history save/load round-trips" `Quick test_history_roundtrip;
        ] );
      ( "read-faults",
        [
          Alcotest.test_case "WAL replay under read faults" `Quick test_wal_read_faults;
          Alcotest.test_case "checkpoint recovery falls back on a flipped bit" `Quick
            test_checkpoint_read_faults;
          Alcotest.test_case "container open under an injected reader" `Quick
            test_container_read_injector;
        ] );
      ( "client",
        [
          Alcotest.test_case "an ambiguous write is never silently resent" `Quick
            test_write_never_resent;
          Alcotest.test_case "circuit breaker opens, fails fast, re-opens" `Quick
            test_circuit_breaker;
        ] );
      ( "overload",
        [
          Alcotest.test_case "slow-loris clients are evicted; others unharmed" `Quick
            test_slow_loris_eviction;
          Alcotest.test_case "admission control sheds with typed Overloaded" `Quick
            test_admission_control;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "partition and heal" `Quick test_nemesis_partition_heal;
          Alcotest.test_case "truncate mid-replication-stream" `Quick test_nemesis_truncate_stream;
          Alcotest.test_case "reset storm on the client path" `Quick test_nemesis_reset_storm;
          Alcotest.test_case "stalled feed: staleness bound enforced" `Quick
            test_nemesis_stall_staleness;
          Alcotest.test_case "delayed heartbeats: auto-promote + fencing" `Quick
            test_nemesis_autopromote_fencing;
          Alcotest.test_case "failover under a reset storm" `Quick
            test_nemesis_failover_reset_storm;
        ] );
    ]
