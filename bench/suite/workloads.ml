(* The four dkbench workloads, driven over the wire against a real
   dkindex-server child process.

   Each run builds its oracle in-process from [Dataset.make] at the
   workload's scale — the same pinned recipe the server builds from
   [--xmark SCALE --seed S] — so every reply can be checked.  The
   harness alone derives the request and write streams from the run's
   seed; the server only ever sees the dataset recipe.

   All loops are closed: [Client.call] blocks until the reply, so each
   client has one request in flight.  One client domain plus the
   server's event loop fill a 2-core host; mixed-write adds a second
   client domain for the writer. *)

open Dkindex_graph
open Dkindex_core
module Wire = Dkindex_server.Wire
module Client = Dkindex_server.Client
module Dataset = Dkindex_server.Dataset
module Prng = Dkindex_datagen.Prng
module Path_ast = Dkindex_pathexpr.Path_ast
module Path_parser = Dkindex_pathexpr.Path_parser
module Planner = Dkindex_planner.Planner
module Wal = Dkindex_server.Wal
module Checkpoint = Dkindex_server.Checkpoint

type name = Hot_read | Cold_read | Mixed_write | Restart

let all = [ Hot_read; Cold_read; Mixed_write; Restart ]

let to_string = function
  | Hot_read -> "hot-read"
  | Cold_read -> "cold-read"
  | Mixed_write -> "mixed-write"
  | Restart -> "restart"

let of_string s = List.find_opt (fun w -> to_string w = s) all

let why = function
  | Hot_read ->
    "scale-40 cached reads: the serving path dominates and the validation cache holds the whole \
     working set"
  | Cold_read ->
    "scale-2000 uncached planned reads: index walk and validation dominate on a graph far larger \
     than the CPU caches"
  | Mixed_write ->
    "scale-400 durable server: reads beside a write stream through Dk_update, WAL, checkpoints \
     and cache invalidation"
  | Restart ->
    "scale-2000 durable primary: SIGKILL recovery and cold replica bootstrap through checkpoint, \
     WAL replay and snapshot transfer"

(* Regular-expression queries mixed into cold-read, one request in ten.
   Each costs under 3 ms at scale 2000.  Candidates that cost more than
   100 ms were dropped: item.(incategory|mailbox.mail.from) (7 s),
   person.(address.city|profile.education) (2.4 s) and
   category.(name|description) (16 s) spend millions of data visits in
   NFA validation, which would turn the window into a handful of
   requests. *)
let cold_regexes =
  [
    "open_auction.(bidder|seller).personref?";
    "person.(profile.interest|watches.watch)";
    "closed_auction.(buyer|seller|itemref)";
    "open_auction.bidder.(personref|increase)";
  ]

(* The dataset is pinned: its graph and its 100 Section 6.1 query paths
   define each workload, as in the paper's experiments.  The run's seed
   drives the streams instead: the order of reads and which write edges
   are drawn.  A seeded query set would measure a different workload on
   every seed — at scale 2000 the mean uncached query cost moves by
   about 20% between Query_gen seeds (2.3 ms to 4.2 ms over seeds 1-8,
   9 against 4 paths ending in a VALUE step), far beyond the bounds. *)
let dataset_seed = 1

type config = {
  server_exe : string;
  work : string;  (** scratch root; every data directory lives below it *)
  seed : int;
  window_s : float;
  smoke : bool;
}

(* hot-read keeps its scale in the smoke: a smaller index replays a
   read in less time than the recorder's 3% budget needs. *)
let scale cfg = function
  | Hot_read -> 40
  | Cold_read -> if cfg.smoke then 40 else 2000
  | Mixed_write -> if cfg.smoke then 40 else 400
  | Restart -> if cfg.smoke then 40 else 2000

let warmup_s cfg = if cfg.smoke then 0.2 else 2.0

(* Timed server launches per run; setup_s is their median.  A launch at
   scale 40 takes ~12 ms and single launches scatter by tens of
   percent, so the cheap workloads launch more often; every workload
   spends at most ~4 s on launches. *)
let launches = function Hot_read -> 21 | Mixed_write -> 11 | Cold_read | Restart -> 7

(* WAL records every restart recovery replays. *)
let restart_writes cfg = if cfg.smoke then 200 else 2000

(* Verification sweeps over all queries per recovered or bootstrapped
   server in restart. *)
let restart_sweeps = 3

(* mixed-write: at most [live_edges] of the [edge_pool] edges are
   present at any time. *)
let edge_pool = 256
let live_edges = 64

(* mixed-write checkpoints every this many WAL records.  An
   acknowledged write costs about 13 ms at scale 400 on a 2-core host
   (the publish step, Index_graph.prepare_serving, is linear in the
   index), and the writer is paced at [write_rate]; 128 records lands
   several background checkpoints in every 20 s window, where 4096
   would land none. *)
let mixed_checkpoint_every = 128

let durable_flags = function
  | Mixed_write ->
    [ "--sync"; "interval:64"; "--checkpoint-every"; string_of_int mixed_checkpoint_every ]
  | Restart -> [ "--sync"; "interval:64"; "--checkpoint-every"; "1000000"; "--heartbeat"; "0.02" ]
  | Hot_read | Cold_read -> []

(* ------------------------------------------------------------------ *)
(* Sample buffers and failure tallies *)

module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then (
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a);
    b.a.(b.n) <- x;
    b.n <- b.n + 1
end

type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 8 then t.errors <- msg :: t.errors

let merge_tally a b =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  List.iter (fun e -> if List.length a.errors < 8 then a.errors <- e :: a.errors) (List.rev b.errors)

(* Round trips of one request kind over a timed window, with the
   instant each request was sent.  Reads cycle through a stream whose
   [period] requests are the workload's whole request mix; a window
   that ends mid-period over-weights part of the mix (at cold-read's
   scale one period is a few seconds), so read statistics cover whole
   periods only. *)
type series = { lat : Buf.t; sent : Buf.t; period : int; mutable window_ns : int }

let series ?(period = 1) () = { lat = Buf.create (); sent = Buf.create (); period; window_ns = 0 }

let record_sample s ~t0 ~t1 =
  Buf.push s.lat (t1 - t0);
  Buf.push s.sent t0

(* Samples in whole periods. *)
let whole s = if s.lat.Buf.n >= s.period then s.lat.Buf.n / s.period * s.period else s.lat.Buf.n

let sorted_prefix s n = Stats.sorted_copy (Array.init n (fun i -> float_of_int s.lat.Buf.a.(i)))

let p50_ns s =
  let n = whole s in
  if Stats.tail_ok ~n 0.5 then Some (Stats.percentile_sorted (sorted_prefix s n) 0.5) else None

(* Tail latency: the p99 of each block of 1000 consecutive samples
   (each block has ten samples beyond its p99), then the median over
   blocks, so one stall on a shared host moves one block rather than
   the metric.  [None] below one block. *)
let block = 1000

let p99_ns s =
  let nb = whole s / block in
  if nb = 0 then None
  else
    let p99 b =
      Stats.percentile_sorted
        (Stats.sorted_copy (Array.init block (fun i -> float_of_int s.lat.Buf.a.((b * block) + i))))
        0.99
    in
    Some (Stats.median (Array.init nb p99))

let ops_per_s s =
  let n = whole s in
  let ns = if n = s.lat.Buf.n then s.window_ns else s.sent.Buf.a.(n) - s.sent.Buf.a.(0) in
  if n = 0 then None else Some (float_of_int n /. (float_of_int ns *. 1e-9))

let series_metrics prefix s =
  let us = Option.map (fun ns -> ns /. 1000.0) in
  [ (prefix ^ "_ops_per_s", ops_per_s s); (prefix ^ "_p50_us", us (p50_ns s)); (prefix ^ "_p99_us", us (p99_ns s)) ]

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  workload : name;
  scale : int;
  metrics : (string * float option) list;  (** [None]: too few samples for the statistic *)
  counts : (string * int) list;  (** samples behind the metrics, and server Stats deltas *)
  tally : tally;
  server_argv : string list;
}

let metric r k = Option.join (List.assoc_opt k r.metrics)
let count r k = Option.value ~default:0 (List.assoc_opt k r.counts)

(* ------------------------------------------------------------------ *)
(* Server processes *)

let base_args ~scale =
  [ "--xmark"; string_of_int scale; "--seed"; string_of_int dataset_seed; "--port"; "0"; "--workers"; "1" ]

let server_args cfg w ~dir =
  base_args ~scale:(scale cfg w)
  @ (match dir with Some d -> [ "--data-dir"; d ] | None -> [])
  @ durable_flags w

(* [launches w] timed launches, spawn -> listening line; all but the
   last are killed again (their drain is not what they measure, and
   one idle server was seen to take the whole SIGTERM grace to exit).
   Durable workloads give every launch a fresh data directory. *)
let setup cfg w =
  let durable = durable_flags w <> [] in
  let dir i = Proc.fresh_dir (Filename.concat cfg.work (Printf.sprintf "launch-%d" i)) in
  let launches = launches w in
  let times = Array.make launches 0.0 and kept = ref None in
  for i = 1 to launches do
    let argv = server_args cfg w ~dir:(if durable then Some (dir i) else None) in
    let s = Proc.spawn cfg.server_exe argv in
    let port, secs = Proc.wait_listening s in
    times.(i - 1) <- secs;
    if i < launches then Proc.kill9 s else kept := Some (s, port, argv)
  done;
  let s, port, argv = Option.get !kept in
  (s, port, argv, Stats.median times)

let connect port = Client.connect ~timeout_s:20.0 ~attempts:20 ~backoff_base_s:0.005 ~port ()

let server_stats c =
  match Client.call c Wire.Stats with
  | Wire.Stats_reply kvs -> kvs
  | _ -> failwith "unexpected reply to Stats"

let stat kvs k =
  match List.assoc_opt k kvs with Some v -> Option.value ~default:0 (int_of_string_opt v) | None -> 0

let delta_keys =
  [ "served"; "served_inline"; "shed"; "snapshot_swaps"; "checkpoints_written"; "deadline_expired" ]

let stats_delta before after = List.map (fun k -> (k, stat after k - stat before k)) delta_keys

(* ------------------------------------------------------------------ *)
(* Oracles and request streams *)

let same_nodes (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Is sorted [a] a subset of sorted [b]? *)
let subset (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    i >= na || (j < nb && if a.(i) = b.(j) then go (i + 1) (j + 1) else a.(i) > b.(j) && go i (j + 1))
  in
  go 0 0

let intern_path g labels =
  let pool = Data_graph.pool g in
  Array.of_list (List.map (fun l -> Option.get (Label.Pool.find_opt pool l)) labels)

let answers idx queries =
  Array.map
    (fun q -> Array.of_list (Query_eval.eval_path idx (intern_path (Index_graph.data idx) q)).nodes)
    queries

(* A seeded permutation of [0, n). *)
let order ~seed ~salt n =
  let a = Array.init n Fun.id in
  Prng.shuffle (Prng.create ~seed:((seed * 1_000_003) + salt)) a;
  a

let n_writes cfg = function Restart -> restart_writes cfg | _ -> edge_pool

let dataset cfg w = Dataset.make ~seed:dataset_seed ~n_updates:(4 * n_writes cfg w) ~scale:(scale cfg w) ()

(* The workload's write stream: distinct ID/IDREF edges absent from
   the initial graph, a seeded choice among those the dataset's own
   Section 6.2 generator draws.  restart adds them all; mixed-write
   cycles through them. *)
let write_edges cfg w (ds : Dataset.t) =
  let count = n_writes cfg w in
  let seen = Hashtbl.create count in
  let fresh (u, v) =
    u <> v
    && (not (Data_graph.has_edge ds.graph u v))
    && (not (Hashtbl.mem seen (u, v)))
    && (Hashtbl.replace seen (u, v) ();
        true)
  in
  let pool = Array.of_list (List.filter fresh ds.update_edges) in
  if Array.length pool < count then
    failwith (Printf.sprintf "only %d distinct absent edges for %d writes" (Array.length pool) count);
  Prng.shuffle (Prng.create ~seed:((cfg.seed * 1_000_003) + 5)) pool;
  Array.sub pool 0 count

(* One read and the answer the oracle expects.  [exact] replies must
   also match the oracle's visit counts bit for bit (uncached, so the
   costs are reproducible); the others are checked on nodes only. *)
type read_req = { req : Wire.request; expect : Wire.query_result; exact : bool }

(* What the server sends for an evaluation result (the generation and
   replica age stamps are not compared). *)
let wire_result (r : Query_eval.result) : Wire.query_result =
  {
    nodes = Array.of_list r.nodes;
    index_visits = r.cost.index_visits;
    data_visits = r.cost.data_visits;
    n_candidates = r.n_candidates;
    n_certain = r.n_certain;
    generation = 0;
    age_ms = 0;
  }

let query_path labels = Wire.Query_path { flags = { no_cache = false }; labels }

(* Cached label-path reads over the dataset's 100 Section 6.1 paths, in
   a seeded order, answered by [idx]. *)
let path_stream idx queries ~seed ~salt =
  let ord = order ~seed ~salt (Array.length queries) in
  let g = Index_graph.data idx in
  Array.map
    (fun k ->
      let r = Query_eval.eval_path idx (intern_path g queries.(k)) in
      { req = query_path queries.(k); expect = wire_result r; exact = false })
    ord

(* cold-read: uncached planned reads; nine seeded label paths, then one
   pinned regular expression, repeating. *)
let cold_stream (ds : Dataset.t) ~seed =
  let pl = Planner.create (Index_graph.data ds.index) in
  Planner.register pl ~name:"index" ds.index;
  let mk expr =
    let _, r = Planner.eval_planned pl expr in
    { req = Wire.Query_planned { flags = { no_cache = true }; expr }; expect = wire_result r; exact = true }
  in
  let paths = Array.map (fun q -> mk (Path_ast.seq_of_labels q)) (Array.of_list ds.queries) in
  let regexes = Array.of_list (List.map (fun e -> mk (Path_parser.parse e)) cold_regexes) in
  let ord = order ~seed ~salt:2 (Array.length paths) in
  let np = Array.length paths and nr = Array.length regexes in
  Array.init (10 * np) (fun i ->
      if i mod 10 = 9 then regexes.(i / 10 mod nr) else paths.(ord.((i - (i / 10)) mod np)))

let result_of = function
  | Wire.Result r | Wire.Planned_result { result = r; _ } -> Some r
  | _ -> None

let check_reply rr resp =
  match result_of resp with
  | Some r ->
    let e = rr.expect in
    if not (same_nodes e.nodes r.nodes) then Some "nodes differ from the oracle"
    else if
      rr.exact
      && not
           (e.index_visits = r.index_visits && e.data_visits = r.data_visits
          && e.n_candidates = r.n_candidates && e.n_certain = r.n_certain)
    then Some "visit counts differ from the oracle"
    else None
  | None -> Some (match resp with Wire.Overloaded -> "overloaded" | _ -> "unexpected reply")

(* ------------------------------------------------------------------ *)
(* Closed-loop clients *)

(* Send request i = from, from + 1, ... until [stop_ns]; [check i resp]
   names what is wrong with a reply.  Every request is checked and
   counted; round trips are kept only when [record] (warm-up is not
   timed).  Returns the next request number. *)
let read_loop c tl s ~record ~from ~stop_ns ~req ~check =
  let i = ref from in
  while Clock.now_ns () < stop_ns do
    let r = req !i in
    tl.attempted <- tl.attempted + 1;
    let t0 = Clock.now_ns () in
    (match Client.call c r with
    | resp -> (
      let t1 = Clock.now_ns () in
      match check !i resp with
      | None -> if record then record_sample s ~t0 ~t1
      | Some msg -> fail tl (Printf.sprintf "read %d: %s" !i msg))
    | exception Client.Error e -> fail tl (Client.error_to_string e));
    incr i
  done;
  !i

(* One acknowledged write; its round trip is kept when [record]. *)
let write ?(record = true) c tl s req =
  tl.attempted <- tl.attempted + 1;
  let t0 = Clock.now_ns () in
  match Client.call c req with
  | Wire.Ok_reply _ -> if record then record_sample s ~t0 ~t1:(Clock.now_ns ())
  | Wire.Overloaded -> fail tl "write overloaded"
  | Wire.Read_only -> fail tl "write refused: read-only"
  | _ -> fail tl "unexpected reply to a write"
  | exception Client.Error e -> fail tl ("write: " ^ Client.error_to_string e)

let secs_ns s = int_of_float (s *. 1e9)

(* The mixed-write writer: step i adds edge i and removes edge
   i - live_edges, so readers always see a graph between the initial
   one and the initial one plus the whole pool.  Writes are paced at
   [write_rate] per second (a late write goes out at once), so the
   reader meets the same write load and cache invalidations on every
   run instead of whatever share of the 2 cores the writer wins.  They
   are timed from [w0_ns]; after [stop_ns] the live edges are removed,
   restoring the initial graph. *)
let write_rate = 50.0

let writer port edges ~w0_ns ~stop_ns () =
  let c = connect port in
  let tl = tally () and s = series () in
  let k = Array.length edges in
  let add i = let u, v = edges.(i mod k) in Wire.Add_edge { u; v } in
  let remove i = let u, v = edges.(i mod k) in Wire.Remove_edge { u; v } in
  let gap = secs_ns (1.0 /. write_rate) in
  let due = ref (Clock.now_ns ()) in
  let paced req =
    let wait = !due - Clock.now_ns () in
    if wait > 0 then Unix.sleepf (float_of_int wait *. 1e-9);
    due := !due + gap;
    write ~record:(Clock.now_ns () >= w0_ns) c tl s req
  in
  let i = ref 0 in
  while Clock.now_ns () < stop_ns do
    paced (add !i);
    if !i >= live_edges then paced (remove (!i - live_edges));
    incr i
  done;
  s.window_ns <- Clock.now_ns () - w0_ns;
  for j = max 0 (!i - live_edges) to !i - 1 do
    write ~record:false c tl s (remove j)
  done;
  Client.close c;
  (tl, s)

(* ------------------------------------------------------------------ *)
(* hot-read and cold-read: warm-up, Stats, timed window, Stats *)

let run_reads cfg w stream =
  let n = Array.length stream in
  let s, port, argv, setup_s = setup cfg w in
  let tl = tally () in
  let c = connect port in
  let reads = series ~period:n () in
  let req i = stream.(i mod n).req and check i resp = check_reply stream.(i mod n) resp in
  let warm_end = Clock.now_ns () + secs_ns (warmup_s cfg) in
  let next = read_loop c tl reads ~record:false ~from:0 ~stop_ns:warm_end ~req ~check in
  let before = server_stats c in
  let w0 = Clock.now_ns () in
  ignore (read_loop c tl reads ~record:true ~from:next ~stop_ns:(w0 + secs_ns cfg.window_s) ~req ~check);
  reads.window_ns <- Clock.now_ns () - w0;
  let after = server_stats c in
  let rss = Proc.peak_rss_mib s in
  Client.close c;
  Proc.terminate s;
  ( tl,
    argv,
    reads,
    [ ("setup_s", Some setup_s); ("server_peak_rss_mib", Some rss) ],
    stats_delta before after )

(* ------------------------------------------------------------------ *)
(* mixed-write *)

let run_mixed cfg (ds : Dataset.t) =
  let queries = Array.of_list ds.queries in
  let initial = answers ds.index queries in
  let edges = write_edges cfg Mixed_write ds in
  let full =
    let idx = Index_serial.of_string (Index_serial.to_string ds.index) in
    Array.iter (fun (u, v) -> Dk_update.add_edge idx u v) edges;
    answers idx queries
  in
  let ord = order ~seed:cfg.seed ~salt:3 (Array.length queries) in
  let nq = Array.length ord in
  let s, port, argv, setup_s = setup cfg Mixed_write in
  let tl = tally () in
  let c = connect port in
  let w0 = Clock.now_ns () + secs_ns (warmup_s cfg) in
  let stop = w0 + secs_ns cfg.window_s in
  let wd = Domain.spawn (writer port edges ~w0_ns:w0 ~stop_ns:stop) in
  let reads = series ~period:nq () in
  let req i = query_path queries.(ord.(i mod nq)) in
  let check i resp =
    match result_of resp with
    | Some r ->
      let k = ord.(i mod nq) in
      if subset initial.(k) r.nodes && subset r.nodes full.(k) then None
      else Some "nodes outside [initial graph, initial graph + edge pool]"
    | None -> Some "unexpected reply"
  in
  let next = read_loop c tl reads ~record:false ~from:0 ~stop_ns:w0 ~req ~check in
  let before = server_stats c in
  let io0 = Proc.storage_bytes s in
  let r0 = Clock.now_ns () in
  ignore (read_loop c tl reads ~record:true ~from:next ~stop_ns:stop ~req ~check);
  reads.window_ns <- Clock.now_ns () - r0;
  let io1 = Proc.storage_bytes s in
  let wtl, writes = Domain.join wd in
  merge_tally tl wtl;
  let after = server_stats c in
  (* The remove pass restored the initial graph: a full sweep must
     answer exactly like the initial oracle. *)
  Array.iteri
    (fun k q ->
      tl.attempted <- tl.attempted + 1;
      match Client.call c (query_path q) with
      | Wire.Result r when same_nodes r.nodes initial.(k) -> ()
      | _ -> fail tl (Printf.sprintf "final sweep: query %d differs from the initial oracle" k)
      | exception Client.Error e -> fail tl ("final sweep: " ^ Client.error_to_string e))
    queries;
  let rss = Proc.peak_rss_mib s in
  Client.close c;
  Proc.terminate s;
  let acked = writes.lat.Buf.n in
  let storage =
    match (io0, io1) with
    | Some a, Some b when acked > 0 -> Some (float_of_int (b - a) /. float_of_int acked)
    | _ -> None
  in
  ( tl,
    argv,
    reads,
    [ ("setup_s", Some setup_s); ("server_peak_rss_mib", Some rss) ]
    @ series_metrics "write" writes
    @ [ ("storage_bytes_per_write", storage) ],
    ("writes", acked) :: stats_delta before after )

(* ------------------------------------------------------------------ *)
(* restart *)

(* Every query, [restart_sweeps] times, against one server. *)
let sweep c tl reads stream =
  for _ = 1 to restart_sweeps do
    Array.iter
      (fun rr ->
        tl.attempted <- tl.attempted + 1;
        let t0 = Clock.now_ns () in
        match Client.call c rr.req with
        | resp -> (
          let t1 = Clock.now_ns () in
          match check_reply rr resp with
          | None -> record_sample reads ~t0 ~t1
          | Some msg -> fail tl ("sweep: " ^ msg))
        | exception Client.Error e -> fail tl ("sweep: " ^ Client.error_to_string e))
      stream
  done

let since_spawn (p : Proc.server) = float_of_int (Clock.now_ns () - p.spawned_ns) *. 1e-9

(* Poll Stats at most 10 ms apart until [ready]; seconds since spawn. *)
let poll_until p c ~timeout ready =
  let deadline = Clock.now_s () +. timeout in
  let rec go () =
    if ready (server_stats c) then since_spawn p
    else if Clock.now_s () > deadline then failwith "replica did not catch up"
    else (
      Unix.sleepf 0.01;
      go ())
  in
  go ()

(* The primary is launched durable, then SIGKILLed, and its WAL gets
   the workload's [restart_writes] Add_edge records through
   [Wal.append], the encoder its mutator logs with.  Acknowledging them
   over the wire instead costs about 23 ms a write at scale 2000 (the
   per-write publish is linear in the index): 47 s a run, more than the
   whole benchmark can spend.  Recovery replays the same bytes either
   way; acknowledged durable writes are mixed-write's subject. *)
let crash_with_writes s ~dir edges =
  Proc.kill9 s;
  let seq = List.fold_left max 0 (Checkpoint.wal_seqs dir) in
  let wal = Wal.create ~sync:Wal.Never (Checkpoint.wal_file ~dir ~seq) in
  Array.iter (fun (u, v) -> Wal.append wal (Wal.Add_edge { u; v })) edges;
  Wal.close wal

let run_restart cfg (ds : Dataset.t) =
  let n_writes = restart_writes cfg in
  let edges = write_edges cfg Restart ds in
  let queries = Array.of_list ds.queries in
  Array.iter (fun (u, v) -> Dk_update.add_edge ds.index u v) edges;
  let stream = path_stream ds.index queries ~seed:cfg.seed ~salt:4 in
  let s, _, argv, setup_s = setup cfg Restart in
  let rec data_dir = function "--data-dir" :: d :: _ -> d | _ :: l -> data_dir l | [] -> assert false in
  let crashed = data_dir argv in
  crash_with_writes s ~dir:crashed edges;
  let tl = tally () in
  let reads = series ~period:(restart_sweeps * Array.length stream) () in
  let recoveries = ref [] and bootstraps = ref [] and rss = ref [] and replayed = ref [] in
  let min_cycles = if cfg.smoke then 1 else 3 in
  let t0 = Clock.now_ns () in
  let stop = t0 + secs_ns cfg.window_s in
  let cycle = ref 0 in
  while !cycle < min_cycles || Clock.now_ns () < stop do
    incr cycle;
    (* Recover a copy of the crashed directory, so that every recovery
       replays the same WAL. *)
    let pdir = Filename.concat cfg.work (Printf.sprintf "primary-%d" !cycle) in
    Proc.copy_dir crashed pdir;
    let p = Proc.spawn cfg.server_exe (server_args cfg Restart ~dir:(Some pdir)) in
    let pport, _ = Proc.wait_listening p in
    let pc = connect pport in
    let first = stream.(0) in
    tl.attempted <- tl.attempted + 1;
    (match Client.call pc first.req with
    | resp when check_reply first resp = None -> recoveries := since_spawn p :: !recoveries
    | _ -> fail tl "recovered primary: wrong first answer"
    | exception Client.Error e -> fail tl ("recovered primary: " ^ Client.error_to_string e));
    let n = stat (server_stats pc) "recovery_replayed_records" in
    replayed := n :: !replayed;
    if n <> n_writes then fail tl (Printf.sprintf "recovery replayed %d WAL records, not %d" n n_writes);
    sweep pc tl reads stream;
    (* A cold replica bootstraps from the recovered primary. *)
    let rdir = Proc.fresh_dir (Filename.concat cfg.work (Printf.sprintf "replica-%d" !cycle)) in
    let r =
      Proc.spawn cfg.server_exe
        (base_args ~scale:(scale cfg Restart)
        @ [ "--data-dir"; rdir; "--replicate-from"; Printf.sprintf "127.0.0.1:%d" pport ]
        @ [ "--replica-id"; string_of_int !cycle ])
    in
    let rport, _ = Proc.wait_listening r in
    let rc = connect rport in
    let boot =
      poll_until r rc ~timeout:60.0 (fun kvs ->
          stat kvs "replication_snapshots_installed" >= 1
          && stat kvs "replication_bytes_behind" = 0
          && List.mem_assoc "replication_applied_seq" kvs
          && stat kvs "replication_applied_seq" <> -1)
    in
    bootstraps := boot :: !bootstraps;
    sweep rc tl reads stream;
    Client.close rc;
    Proc.kill9 r;
    rss := Proc.peak_rss_mib p :: !rss;
    Client.close pc;
    Proc.kill9 p;
    Proc.rm_rf pdir;
    Proc.rm_rf rdir
  done;
  reads.window_ns <- Clock.now_ns () - t0;
  let med l = if l = [] then None else Some (Stats.median (Array.of_list l)) in
  ( tl,
    argv,
    reads,
    [
      ("setup_s", Some setup_s);
      ("server_peak_rss_mib", med !rss);
      ("recovery_s", med !recoveries);
      ("bootstrap_s", med !bootstraps);
    ],
    [
      ("cycles", !cycle);
      ("recovery_replayed_records", List.fold_left min max_int !replayed);
    ] )

(* ------------------------------------------------------------------ *)

let run cfg w =
  ignore (Proc.fresh_dir cfg.work);
  let ds = dataset cfg w in
  let tl, argv, reads, metrics, counts =
    match w with
    | Hot_read -> run_reads cfg w (path_stream ds.index (Array.of_list ds.queries) ~seed:cfg.seed ~salt:1)
    | Cold_read -> run_reads cfg w (cold_stream ds ~seed:cfg.seed)
    | Mixed_write -> run_mixed cfg ds
    | Restart -> run_restart cfg ds
  in
  Proc.rm_rf cfg.work;
  let failed_ratio =
    if tl.attempted = 0 then 1.0 else float_of_int tl.failed /. float_of_int tl.attempted
  in
  {
    workload = w;
    scale = scale cfg w;
    metrics = series_metrics "read" reads @ metrics @ [ ("failed_ratio", Some failed_ratio) ];
    counts = ("reads", reads.lat.Buf.n) :: counts;
    tally = tl;
    server_argv = argv;
  }
