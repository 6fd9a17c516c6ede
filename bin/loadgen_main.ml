(* dkindex-loadgen: drive a dkindex-server with N concurrent
   connections.

   With no mode flag it prints the server's Stats summary: launch stage
   times and collections, load shedding, replication and integrity
   counters.  Throughput and latency are dkbench's (bench/suite), which
   reports their spread.

   Check mode (--check) is the end-to-end correctness harness: it
   rebuilds the server's dataset locally (same --xmark/--seed recipe),
   then runs a query phase, an update phase (replayed locally through
   Dk_update), and a second query phase — requiring every server
   response to be bit-for-bit identical to the in-process
   Query_eval.eval_batch answer, validation costs included (queries go
   out with no_cache so cache warm-up cannot perturb costs). *)

open Cmdliner
open Dkindex_graph
open Dkindex_core
module Client = Dkindex_server.Client
module Wire = Dkindex_server.Wire
module Dataset = Dkindex_server.Dataset
module Chaos = Dkindex_server.Chaos
module History = Dkindex_server.History

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address")

let port_arg = Arg.(value & opt int 7411 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port")

let conns_arg =
  Arg.(value & opt int 4 & info [ "c"; "connections" ] ~docv:"N" ~doc:"Concurrent connections")

let requests_arg =
  Arg.(
    value & opt int 2000
    & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests (nemesis mode)")

let xmark_arg =
  Arg.(
    value & opt int 40
    & info [ "xmark" ] ~docv:"SCALE" ~doc:"Dataset scale (must match the server)")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Dataset seed")

let updates_arg =
  Arg.(
    value & opt int 50 & info [ "updates" ] ~docv:"N" ~doc:"Edge additions in check mode")

let check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Verify responses against an in-process index")

let recovered_arg =
  Arg.(
    value & flag
    & info [ "recovered" ]
        ~doc:
          "With --check: the server under test was restarted from its checkpoint + WAL after \
           a previous --check run acknowledged the updates.  Apply the update phase locally \
           only, then require the recovered server's answers to match bit-for-bit.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Self-healing reads: reconnect (exponential backoff) and transparently re-issue \
           idempotent queries up to N times, e.g. across a server restart.")

let pipeline_arg =
  Arg.(
    value & opt int 1
    & info [ "pipeline" ] ~docv:"K"
        ~doc:
          "Keep up to K requests in flight per connection instead of strict \
           request/response lockstep.  Replies are matched to requests by frame id, so \
           --check remains bit-for-bit under pipelining.")

let promote_arg =
  Arg.(
    value & flag
    & info [ "promote" ]
        ~doc:"Send Promote_primary to the server (failover: flip a replica into a primary) and exit")

let wait_replication_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "wait-replication" ] ~docv:"SECONDS"
        ~doc:
          "Poll the server's stats until every connected replica reports zero bytes behind (or \
           the timeout expires — nonzero exit); run after a write workload to bound failover \
           data loss")

let nemesis_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "nemesis" ] ~docv:"SPEC"
        ~doc:
          "Chaos mode: interpose a seeded fault-injecting TCP proxy between the loadgen and \
           the server, drive a write/probe workload through it while recording an operation \
           history, then verify the acknowledged-history consistency contract (acked writes \
           survive, reads monotonic, staleness bounded, fencing honored).  SPEC is \
           comma-separated clauses, e.g. delay:2~1,partition:1+2,reset-all:4 — see \
           Chaos.spec_of_string.  The empty string runs chaos mode with no faults.")

let history_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:"With --nemesis: save the recorded operation history (re-checkable offline)")

let staleness_check_arg =
  Arg.(
    value & opt float 10.0
    & info [ "staleness-check" ] ~docv:"SECONDS"
        ~doc:
          "With --nemesis: the staleness bound the checker enforces on wire-stamped replica \
           ages (match the server's --staleness-bound; <= 0 disables)")

let integrity_check_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "integrity-check" ] ~docv:"HOST:PORT[,HOST:PORT...]"
        ~doc:
          "After the workload (or alone), poll every listed server's integrity digest until \
           they all report the same root digest at the same write-stream position — the \
           end-to-end proof that primary and replicas serve identical content.  Exit 4 if \
           they have not converged within --integrity-timeout.")

let integrity_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "integrity-timeout" ] ~docv:"SECONDS"
        ~doc:"How long --integrity-check polls before declaring divergence")

(* Self-healing knobs, set from --retries: every connection the
   loadgen opens reconnects with backoff and retries idempotent reads
   this many times. *)
let retries = ref 0

let connect ~host ~port ?(seed = 0) () =
  Client.connect ~host ~port ~attempts:(!retries + 1) ~retries:!retries
    ~timeout_s:(if !retries > 0 then 30.0 else 0.0)
    ~seed ()

(* [f c] over connection [c], closed however [f] returns. *)
let with_client c f = Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* [drive c d] on each of [conns] driver domains [d], each with its own
   connection [c]. *)
let on_domains ~host ~port ~conns drive =
  List.init conns (fun d ->
      Domain.spawn (fun () -> with_client (connect ~host ~port ~seed:d ()) (fun c -> drive c d)))
  |> List.iter Domain.join

(* Fan [f c i] over [count] tasks, task i on domain i mod conns. *)
let fan_out ~host ~port ~conns ~count f =
  on_domains ~host ~port ~conns (fun c d ->
      let i = ref d in
      while !i < count do
        f c !i;
        i := !i + conns
      done)

(* Pipelined fan-out: like [fan_out], but each connection keeps up to
   [depth] requests in flight, sending the next as soon as a slot
   frees.  Replies are matched to their request by frame id, so
   server-side reordering cannot misattribute an answer.  [on_reply i
   msg] runs on the driver domain that sent request [i]. *)
let fan_out_pipelined ~host ~port ~conns ~depth ~count ~mk ~on_reply =
  on_domains ~host ~port ~conns (fun c d ->
      let inflight = Hashtbl.create (2 * depth) in
      let next = ref d in
      let drain_one () =
        let r = Client.recv c in
        match Hashtbl.find_opt inflight r.Wire.id with
        | None -> failwith "pipelined reply with unknown frame id"
        | Some i ->
          Hashtbl.remove inflight r.Wire.id;
          on_reply i r.Wire.msg
      in
      while !next < count do
        if Hashtbl.length inflight >= depth then drain_one ()
        else begin
          let i = !next in
          let id = Client.send c (mk i) in
          Hashtbl.replace inflight id i;
          next := !next + conns
        end
      done;
      while Hashtbl.length inflight > 0 do
        drain_one ()
      done)

let query_of_labels labels = Wire.Query_path { flags = { no_cache = true }; labels }

let server_stats ~host ~port () =
  with_client (connect ~host ~port ()) @@ fun c ->
  match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs -> kvs
  | _ -> failwith "stats: unexpected response kind"

(* The post-run health summary: load shedding, write-queue pressure, and —
   when the server is part of a replica set — how far behind each
   replica is. *)
let print_stats_summary kvs =
  let get k = List.assoc_opt k kvs in
  let getd k = Option.value (get k) ~default:"0" in
  Printf.printf "server: shed %s  deadline_expired %s  write queue %s (cap %s)  in_flight %s\n"
    (getd "shed") (getd "deadline_expired") (getd "write_queue_depth") (getd "queue_capacity")
    (getd "in_flight");
  Printf.printf
    "server: uptime %s s  evicted_slow_clients %s  rejected_at_admission %s\n"
    (getd "uptime_s") (getd "evicted_slow_clients") (getd "rejected_at_admission");
  Printf.printf "server: launch ms  datagen %s  index_build %s  recover %s  checkpoint %s  prepare %s\n"
    (getd "launch_datagen_ms") (getd "launch_index_build_ms") (getd "launch_recover_ms")
    (getd "launch_checkpoint_ms") (getd "launch_prepare_ms");
  Printf.printf "server: launch gc  minor %s  major %s  alloc_words %s\n"
    (getd "launch_minor_gcs") (getd "launch_major_gcs") (getd "launch_alloc_words");
  (match (get "role", get "epoch") with
  | Some role, Some epoch ->
    Printf.printf "server: role %s  epoch %s  fenced %s\n" role epoch (getd "fenced")
  | _ -> ());
  (match get "vcache_instances" with
  | Some _ ->
    Printf.printf "vcache: %s instance(s)  hits %s  misses %s  entries %s  evictions %s\n"
      (getd "vcache_instances") (getd "vcache_hits") (getd "vcache_misses")
      (getd "vcache_entries") (getd "vcache_evictions")
  | None -> ());
  (match get "planned_queries" with
  | Some n when n <> "0" ->
    Printf.printf
      "planner: planned %s (index scans %s, raw scans %s)  explains %s  fallbacks %s\n" n
      (getd "planned_index_scans") (getd "planned_raw_scans") (getd "explain_queries")
      (getd "plan_fallbacks")
  | _ -> ());
  (match get "replicas_connected" with
  | Some n when n <> "0" ->
    Printf.printf "replication: %s replica(s) connected\n" n;
    List.iter
      (fun (k, v) ->
        if String.length k > 8 && String.sub k 0 8 = "replica." then
          Printf.printf "  %s = %s\n" k v)
      kvs
  | _ -> ());
  (match get "replication_connected" with
  | Some _ ->
    Printf.printf "replication: connected %s  applied %s/%s  behind %s bytes  stale %s\n"
      (getd "replication_connected") (getd "replication_applied_seq")
      (getd "replication_applied_offset") (getd "replication_bytes_behind")
      (getd "replication_stale");
    Printf.printf "replication: snapshots installed %s  last install %s ms\n"
      (getd "replication_snapshots_installed") (getd "replication_snapshot_install_ms")
  | None -> ());
  match get "scrub_passes" with
  | Some _ ->
    Printf.printf
      "integrity: scrub_passes %s  corruptions_found %s  divergences %s\n"
      (getd "scrub_passes") (getd "scrub_corruptions_found") (getd "replica_divergences")
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Check mode *)

let expect_result what = function
  | Wire.Result r -> r
  | Wire.Error_reply { message; _ } -> failwith (what ^ ": server error: " ^ message)
  | Wire.Overloaded -> failwith (what ^ ": shed under a check workload")
  | _ -> failwith (what ^ ": unexpected response kind")

let compare_result ~what (got : Wire.query_result) (want : Query_eval.result) =
  let fail fmt = Printf.ksprintf failwith ("%s: " ^^ fmt) what in
  if Array.to_list got.nodes <> want.nodes then
    fail "nodes differ (%d vs %d)" (Array.length got.nodes) (List.length want.nodes);
  if got.index_visits <> want.cost.Dkindex_pathexpr.Cost.index_visits then
    fail "index_visits %d <> %d" got.index_visits want.cost.index_visits;
  if got.data_visits <> want.cost.Dkindex_pathexpr.Cost.data_visits then
    fail "data_visits %d <> %d" got.data_visits want.cost.data_visits;
  if got.n_candidates <> want.n_candidates then
    fail "n_candidates %d <> %d" got.n_candidates want.n_candidates;
  if got.n_certain <> want.n_certain then fail "n_certain %d <> %d" got.n_certain want.n_certain

let intern_queries (ds : Dataset.t) =
  let pool = Data_graph.pool ds.graph in
  List.map
    (fun labels -> Array.of_list (List.map (Label.Pool.intern pool) labels))
    ds.queries

let query_phase ~host ~port ~conns ~phase ~pipeline (ds : Dataset.t) =
  let queries = Array.of_list ds.queries in
  let nq = Array.length queries in
  let got = Array.make nq None in
  (if pipeline > 1 then
     fan_out_pipelined ~host ~port ~conns ~depth:pipeline ~count:nq
       ~mk:(fun i -> query_of_labels queries.(i))
       ~on_reply:(fun i msg ->
         got.(i) <- Some (expect_result (Printf.sprintf "%s query %d" phase i) msg))
   else
     fan_out ~host ~port ~conns ~count:nq (fun c i ->
         let r = Client.call c (query_of_labels queries.(i)) in
         got.(i) <- Some (expect_result (Printf.sprintf "%s query %d" phase i) r)));
  let want =
    Query_eval.eval_batch ~strategy:`Forward ~cache:false ds.index
      (intern_queries ds)
  in
  Array.iteri
    (fun i w ->
      match got.(i) with
      | None -> failwith (Printf.sprintf "%s query %d: no response" phase i)
      | Some g -> compare_result ~what:(Printf.sprintf "%s query %d" phase i) g w)
    want;
  nq

let check_edges ~updates (ds : Dataset.t) =
  List.filteri (fun i _ -> i < updates) ds.update_edges
  |> List.filter (fun (u, v) -> not (Data_graph.has_edge ds.graph u v))

let check ~host ~port ~conns ~updates ~pipeline (ds : Dataset.t) =
  let n1 = query_phase ~host ~port ~conns ~phase:"phase-1" ~pipeline ds in
  Printf.printf "phase 1: %d queries over %d connections match bit-for-bit\n%!" n1 conns;
  let edges = check_edges ~updates ds in
  with_client (connect ~host ~port ()) (fun c ->
      List.iter
        (fun (u, v) ->
          (match Client.call c (Wire.Add_edge { u; v }) with
          | Wire.Ok_reply _ -> ()
          | Wire.Error_reply { message; _ } ->
            failwith (Printf.sprintf "add_edge %d->%d: %s" u v message)
          | _ -> failwith "add_edge: unexpected response");
          Dk_update.add_edge ds.index u v)
        edges);
  Index_graph.prepare_serving ds.index;
  Printf.printf "phase 2: %d edge additions applied on both sides\n%!" (List.length edges);
  let n3 = query_phase ~host ~port ~conns ~phase:"phase-3" ~pipeline ds in
  Printf.printf "phase 3: %d post-update queries match bit-for-bit\n%!" n3;
  Printf.printf "check OK\n%!"

(* Recovery check: a previous --check run pushed the updates and got
   them acknowledged; the server has since been killed and restarted
   from its checkpoint + WAL.  Replay the same updates locally only
   and require the recovered server to answer from the same state. *)
let check_recovered ~host ~port ~conns ~updates ~pipeline (ds : Dataset.t) =
  let edges = check_edges ~updates ds in
  List.iter (fun (u, v) -> Dk_update.add_edge ds.index u v) edges;
  Index_graph.prepare_serving ds.index;
  Printf.printf "recovered: %d acknowledged updates replayed locally\n%!" (List.length edges);
  let n = query_phase ~host ~port ~conns ~phase:"recovered" ~pipeline ds in
  Printf.printf "recovered: %d queries against the restarted server match bit-for-bit\n%!" n;
  Printf.printf "recovered check OK\n%!"

(* Failover helper: flip a replica into a primary. *)
let promote ~host ~port () =
  with_client (connect ~host ~port ()) @@ fun c ->
  match Client.call c Wire.Promote_primary with
  | Wire.Ok_reply { epoch; _ } ->
    Printf.printf "promoted: %s:%d now primary, epoch %d\n%!" host port epoch
  | Wire.Error_reply { message; _ } -> failwith ("promote: " ^ message)
  | _ -> failwith "promote: unexpected response kind"

(* Wait until every replica connected to HOST:PORT (a primary) reports
   zero bytes behind — run after a write workload to bound how much an
   immediate failover could lose. *)
(* Works against either side: on a primary, waits for every connected
   replica to report zero bytes behind; on a replica, waits for that
   replica itself to be connected and fully caught up. *)
let wait_replication ~host ~port ~timeout_s () =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let kvs = server_stats ~host ~port () in
    let v k = Option.value (List.assoc_opt k kvs) ~default:"" in
    let done_msg =
      if v "role" = "replica" then
        if
          v "replication_connected" = "true"
          && v "replication_bytes_behind" = "0"
          && v "replication_applied_seq" <> "-1"
        then Some "replication: replica caught up"
        else None
      else begin
        let connected =
          int_of_string (Option.value (List.assoc_opt "replicas_connected" kvs) ~default:"0")
        in
        let behind =
          List.exists
            (fun (k, v) ->
              String.length k > 8
              && String.sub k 0 8 = "replica."
              && (let n = String.length k in
                  n > 13 && String.sub k (n - 13) 13 = ".bytes_behind")
              && v <> "0")
            kvs
        in
        if connected > 0 && not behind then
          Some (Printf.sprintf "replication: %d replica(s) caught up" connected)
        else None
      end
    in
    match done_msg with
    | Some msg -> Printf.printf "%s\n%!" msg
    | None ->
      if Unix.gettimeofday () > deadline then begin
        Printf.eprintf "dkindex-loadgen: replication still behind after %.1f s\n%!" timeout_s;
        exit 3
      end
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Integrity convergence check: poll every endpoint's digest until all
   report the same root at the same write-stream position.  Run after
   the write stream drains; exit 4 on timeout = the cluster is serving
   divergent content and anti-entropy has not (yet) resynced it. *)

let parse_endpoints spec =
  String.split_on_char ',' spec
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match String.rindex_opt s ':' with
         | None -> failwith (Printf.sprintf "--integrity-check: %s is not HOST:PORT" s)
         | Some i -> (
           let h = String.sub s 0 i
           and p = String.sub s (i + 1) (String.length s - i - 1) in
           match int_of_string_opt p with
           | None -> failwith (Printf.sprintf "--integrity-check: bad port in %s" s)
           | Some p -> (h, p)))

let digest_of ~host ~port =
  with_client (connect ~host ~port ()) @@ fun c ->
  match Client.call c Wire.Digest_request with
  | Wire.Digest_reply { seq; offset; root; n_nodes; _ } -> (seq, offset, root, n_nodes)
  | Wire.Error_reply { message; _ } -> failwith ("digest: " ^ message)
  | _ -> failwith "digest: unexpected response kind"

let integrity_check ~endpoints ~timeout_s () =
  (match endpoints with
  | [] -> failwith "--integrity-check: no endpoints"
  | _ -> ());
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let ds =
      List.map
        (fun (h, p) -> try Some (digest_of ~host:h ~port:p) with _ -> None)
        endpoints
    in
    let converged =
      match ds with
      | Some ((s0, _, _, _) as d0) :: rest when s0 >= 0 ->
        List.for_all (function Some d -> d = d0 | None -> false) rest
      | _ -> false
    in
    if converged then
      match List.hd ds with
      | Some (s0, o0, r0, _) ->
        Printf.printf "integrity: %d server(s) converged at position (%d,%d), root %012x\n%!"
          (List.length endpoints) s0 o0 r0
      | None -> assert false
    else if Unix.gettimeofday () > deadline then begin
      Printf.eprintf "dkindex-loadgen: integrity digests did not converge after %.1f s\n%!"
        timeout_s;
      List.iteri
        (fun i d ->
          match d with
          | Some (s, o, r, n) ->
            Printf.eprintf "  endpoint %d: position (%d,%d)  root %012x  n_nodes %d\n%!" i s o
              r n
          | None -> Printf.eprintf "  endpoint %d: unreachable\n%!" i)
        ds;
      exit 4
    end
    else begin
      Unix.sleepf 0.2;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Nemesis mode: chaos proxy + recorded history + consistency check *)

(* One driver connection's workload: every 4th op writes a fresh edge
   from the pinned update pool, the rest probe recently written edges.
   Everything is recorded; failures are outcomes, never fatal. *)
let nemesis_driver ~rec_ ~pport ~conns ~requests ~pool d =
  with_client
    (Client.connect ~host:"127.0.0.1" ~port:pport ~attempts:3 ~retries:2 ~timeout_s:5.0
       ~backoff_base_s:0.02 ~backoff_max_s:0.25 ~seed:d ~breaker_threshold:5
       ~breaker_cooldown_s:0.5 ())
  @@ fun c ->
  let npool = Array.length pool in
  let seq = ref 0 in
  let record op outcome invoked_at =
    History.record rec_
      {
        conn = d;
        seq = !seq;
        op;
        invoked_at;
        completed_at = Unix.gettimeofday ();
        outcome;
      };
    incr seq
  in
  let i = ref d in
  while !i < requests do
    let widx = !i / 4 in
    let u, v = pool.(widx mod npool) in
    let t0 = Unix.gettimeofday () in
    (if !i mod 4 = 0 then
       let outcome =
         match Client.call c (Wire.Add_edge { u; v }) with
         | Wire.Ok_reply { epoch; _ } -> History.Acked { epoch }
         | Wire.Error_reply { message; _ } -> History.Refused message
         | Wire.Overloaded -> History.Refused "overloaded"
         | Wire.Read_only -> History.Refused "read-only"
         | Wire.Not_primary _ -> History.Refused "not primary"
         | Wire.Fenced _ -> History.Refused "fenced"
         | _ -> History.Refused "unexpected response kind"
         | exception Client.Error e ->
           History.Ambiguous (Client.error_to_string e)
       in
       record (History.Add_edge { u; v }) outcome t0
     else
       let outcome =
         match Client.call c (Wire.Has_edge { u; v }) with
         | Wire.Edge_reply { present; generation; age_ms } ->
           History.Read_ok
             {
               present;
               generation;
               age_ms;
               endpoint = 0;
               epoch = Client.server_epoch c;
             }
         | Wire.Error_reply { message; _ } -> History.Refused message
         | Wire.Overloaded -> History.Refused "overloaded"
         | _ -> History.Refused "unexpected response kind"
         | exception Client.Error e ->
           History.Ambiguous (Client.error_to_string e)
       in
       record (History.Probe { u; v }) outcome t0);
    i := !i + conns
  done;
  Client.circuit_open_count c

(* The final converged state: probe every edge the history ever tried
   to write, directly against the server (the chaos proxy is out of
   the loop by now). *)
let final_sweep ~host ~port entries =
  let edges = Hashtbl.create 64 in
  List.iter
    (fun (e : History.entry) ->
      match e.op with
      | History.Add_edge { u; v } -> Hashtbl.replace edges (u, v) ()
      | History.Probe _ -> ())
    entries;
  with_client (Client.connect ~host ~port ~attempts:5 ~retries:3 ~timeout_s:10.0 ()) @@ fun c ->
  Hashtbl.fold
    (fun (u, v) () acc ->
      match Client.call c (Wire.Has_edge { u; v }) with
      | Wire.Edge_reply { present; _ } -> (u, v, present) :: acc
      | Wire.Error_reply { message; _ } ->
        failwith (Printf.sprintf "final sweep: probe (%d,%d) refused: %s" u v message)
      | _ -> failwith (Printf.sprintf "final sweep: probe (%d,%d): unexpected response kind" u v))
    edges []

let nemesis ~host ~port ~conns ~requests ~xmark ~seed ~spec_str ~history_path
    ~staleness_check () =
  let spec =
    match Chaos.spec_of_string spec_str with
    | Ok s -> s
    | Error m -> failwith m
  in
  Printf.printf "nemesis: seed %d  spec %S  upstream %s:%d\n%!" seed
    (Chaos.spec_to_string spec) host port;
  let ds = Dataset.make ~seed ~scale:xmark ~n_updates:(max 200 ((requests / 4) + 8)) () in
  let pool =
    Array.of_list
      (List.filter
         (fun (u, v) -> not (Dkindex_graph.Data_graph.has_edge ds.graph u v))
         ds.update_edges)
  in
  if Array.length pool = 0 then failwith "nemesis: empty update pool";
  let proxy = Chaos.create ~seed ~upstream:(host, port) spec in
  let pport = Chaos.port proxy in
  let pdom = Domain.spawn (fun () -> Chaos.run proxy) in
  let rec_ = History.recorder () in
  let opens =
    List.init conns (fun d ->
        Domain.spawn (fun () ->
            try nemesis_driver ~rec_ ~pport ~conns ~requests ~pool d
            with _ -> 0))
    |> List.map Domain.join
    |> List.fold_left ( + ) 0
  in
  Chaos.stop proxy;
  Domain.join pdom;
  let cs = Chaos.stats proxy in
  Printf.printf
    "chaos: %d conns proxied  %d bytes forwarded  %d truncations  %d resets  %d stalls  %d \
     partitions\n%!"
    cs.accepted cs.forwarded_bytes cs.truncations cs.resets cs.stalls cs.partitions;
  Printf.printf "client: circuit breaker opened %d time(s)\n%!" opens;
  let entries = History.entries rec_ in
  let final = final_sweep ~host ~port entries in
  let report =
    History.check
      ~staleness_bound_ms:(int_of_float (staleness_check *. 1000.0))
      ~final entries
  in
  Option.iter
    (fun path ->
      History.save ~entries ~final path;
      Printf.printf "history: %d entries saved to %s\n%!" (List.length entries) path)
    history_path;
  print_endline (History.report_to_string report);
  (match server_stats ~host ~port () with
  | kvs -> print_stats_summary kvs
  | exception _ -> ());
  if not report.History.ok then exit 4

let main host port conns requests xmark seed updates do_check recovered n_retries do_promote
    wait_repl pipeline nemesis_spec history_path staleness_check integrity_spec
    integrity_timeout =
  let pipeline = max 1 pipeline in
  retries := max 0 n_retries;
  let run_integrity_check () =
    Option.iter
      (fun spec ->
        integrity_check ~endpoints:(parse_endpoints spec) ~timeout_s:integrity_timeout ())
      integrity_spec
  in
  if do_promote then promote ~host ~port ()
  else if nemesis_spec <> None then begin
    nemesis ~host ~port ~conns ~requests ~xmark ~seed
      ~spec_str:(Option.get nemesis_spec) ~history_path ~staleness_check ();
    run_integrity_check ()
  end
  else if do_check then begin
    let ds = Dataset.make ~seed ~scale:xmark () in
    if recovered then check_recovered ~host ~port ~conns ~updates ~pipeline ds
    else check ~host ~port ~conns ~updates ~pipeline ds;
    Option.iter (fun timeout_s -> wait_replication ~host ~port ~timeout_s ()) wait_repl;
    run_integrity_check ()
  end
  else
    match (wait_repl, integrity_spec) with
    | Some timeout_s, _ ->
      wait_replication ~host ~port ~timeout_s ();
      run_integrity_check ()
    | None, Some _ -> run_integrity_check ()
    | None, None -> print_stats_summary (server_stats ~host ~port ())

let cmd =
  let doc = "load-generate against dkindex-server; --check verifies bit-for-bit answers" in
  Cmd.v
    (Cmd.info "dkindex-loadgen" ~doc)
    Term.(
      const main $ host_arg $ port_arg $ conns_arg $ requests_arg $ xmark_arg $ seed_arg
      $ updates_arg $ check_arg $ recovered_arg $ retries_arg $ promote_arg
      $ wait_replication_arg $ pipeline_arg $ nemesis_arg $ history_arg
      $ staleness_check_arg $ integrity_check_arg $ integrity_timeout_arg)

let () = exit (Cmd.eval cmd)
