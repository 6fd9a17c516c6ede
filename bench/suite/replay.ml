(* The traced run: a workload's seeded request and write streams
   replayed in-process on one domain, with a span around every call
   into a layer's public functions.

   The replay goes where the server goes for each request — decode,
   plan, evaluate, encode — and where its mutator goes for each write:
   WAL append and fsync, Dk_update on one copy, prepare_serving,
   Checkpoint.apply_mutation on the other copy (the left-right
   catch-up).  It then times the persistence paths (checkpoint write,
   recovery, WAL replay, both Index_serial formats).  Every workload
   replays every layer, at its own scale, so each per-layer metric
   exists for each workload; a layer the workload's own traffic does
   not reach is driven by the workload's edge pool and query set.

   Spans are recorded by the benchmark around the calls; nothing inside
   the server is instrumented. *)

open Dkindex_core
module W = Workloads
module Wire = Dkindex_server.Wire
module Obuf = Dkindex_server.Obuf
module Wal = Dkindex_server.Wal
module Checkpoint = Dkindex_server.Checkpoint
module Dataset = Dkindex_server.Dataset
module Planner = Dkindex_planner.Planner
module Plan = Dkindex_planner.Plan
module Path_ast = Dkindex_pathexpr.Path_ast
module Path_parser = Dkindex_pathexpr.Path_parser
module Xmark = Dkindex_datagen.Xmark

(* Every span name, interned in this order by every recorder so the
   ids below are the same for all of them. *)
let span_names =
  [|
    "request";
    "wire.encode_request";
    "wire.decode_request";
    "planner.choose";
    "query_eval.eval_path";
    "query_eval.eval_expr";
    "planner.execute";
    "wire.encode_response";
    "wire.decode_response";
    "write";
    "wal.append";
    "wal.sync";
    "dk_update.local_similarity";
    "dk_update.add_edge";
    "dk_update.remove_edge";
    "index_graph.prepare_serving";
    "checkpoint.apply_mutation";
    "checkpoint.write";
    "checkpoint.recover";
    "wal.replay";
    "index_graph.clone";
    "index_serial.to_string";
    "index_serial.of_string";
    "index_serial.save_container";
    "index_serial.load_container";
    "datagen.xmark";
    "dk_index.build";
    "probe";
  |]

let sp s =
  match Array.find_index (String.equal s) span_names with Some i -> i | None -> invalid_arg s

let s_request = sp "request"
let s_enc_req = sp "wire.encode_request"
let s_dec_req = sp "wire.decode_request"
let s_choose = sp "planner.choose"
let s_eval_path = sp "query_eval.eval_path"
let s_eval_expr = sp "query_eval.eval_expr"
let s_execute = sp "planner.execute"
let s_enc_resp = sp "wire.encode_response"
let s_dec_resp = sp "wire.decode_response"
let s_write = sp "write"
let s_wal_append = sp "wal.append"
let s_wal_sync = sp "wal.sync"
let s_local_sim = sp "dk_update.local_similarity"
let s_add_edge = sp "dk_update.add_edge"
let s_remove_edge = sp "dk_update.remove_edge"
let s_prepare = sp "index_graph.prepare_serving"
let s_apply = sp "checkpoint.apply_mutation"
let s_ckpt_write = sp "checkpoint.write"
let s_recover = sp "checkpoint.recover"
let s_wal_replay = sp "wal.replay"
let s_clone = sp "index_graph.clone"
let s_to_string = sp "index_serial.to_string"
let s_of_string = sp "index_serial.of_string"
let s_save_container = sp "index_serial.save_container"
let s_load_container = sp "index_serial.load_container"
let s_xmark = sp "datagen.xmark"
let s_build = sp "dk_index.build"
let s_probe = sp "probe"

let recorder ?enabled ~capacity () =
  let t = Spans.create ?enabled ~capacity () in
  Array.iter (fun s -> ignore (Spans.name t s)) span_names;
  t

let timed t nm f =
  let h = Spans.enter t nm in
  let v = f () in
  Spans.leave t h;
  v

(* ------------------------------------------------------------------ *)
(* Reads: the server's read path for one request *)

type reader = {
  idx : Index_graph.t;
  cache : Validation_cache.t option;  (** the server's per-reader cache *)
  planner : Planner.t;  (** uncached, as for [no_cache] planned reads *)
  qbuf : Obuf.t;
  rbuf : Obuf.t;
}

let reader ~cached idx =
  let planner = Planner.create (Index_graph.data idx) in
  Planner.register planner ~name:"index" idx;
  Index_graph.prepare_serving idx;
  {
    idx;
    cache = (if cached then Some (Validation_cache.create idx) else None);
    planner;
    qbuf = Obuf.create 4096;
    rbuf = Obuf.create 65536;
  }

let payload b = (Bytes.unsafe_to_string (Obuf.base b), 4, Obuf.length b - 4)

(* Counts gathered while replaying reads. *)
type read_counts = {
  mutable n : int;
  mutable wrong : int;
  mutable index_visits : int;
  mutable data_visits : int;
  mutable n_candidates : int;
  mutable n_certain : int;
  mutable eval_ns : int;  (** time in the evaluation stage *)
  mutable response_bytes : int;
  mutable plans : int;
  mutable raw_plans : int;
  mutable est_over_actual : float list;
}

let read_counts () =
  {
    n = 0;
    wrong = 0;
    index_visits = 0;
    data_visits = 0;
    n_candidates = 0;
    n_certain = 0;
    eval_ns = 0;
    response_bytes = 0;
    plans = 0;
    raw_plans = 0;
    est_over_actual = [];
  }

let replay_read t rd cnt i (rr : W.read_req) =
  Spans.set_request t i;
  (* The root opens with the first stage and closes with the last, and
     each stage ends where the next begins. *)
  let h = Spans.enter2 t s_request s_enc_req in
  Obuf.clear rd.qbuf;
  Wire.encode_request rd.qbuf ~id:i rr.req;
  let h = Spans.next t h s_dec_req in
  let s, pos, len = payload rd.qbuf in
  let req = match Wire.decode_request_at s ~pos ~len with Ok d -> d.msg | Error e -> failwith e in
  let h, (r : Query_eval.result), wrap =
    match req with
    | Wire.Query_path { flags; labels } ->
      let h = Spans.next t h s_eval_path in
      let cache = if flags.no_cache then None else rd.cache in
      let r = Query_eval.eval_path ?cache rd.idx (W.intern_path (Index_graph.data rd.idx) labels) in
      (h, r, fun q -> Wire.Result q)
    | Wire.Query_planned { expr; _ } ->
      let h = Spans.next t h s_choose in
      let plan = Planner.choose rd.planner expr in
      let h = Spans.next t h (if Path_ast.as_label_seq expr = None then s_eval_expr else s_eval_path) in
      let r = Planner.execute rd.planner plan expr in
      cnt.plans <- cnt.plans + 1;
      if plan.Plan.access = Plan.Raw then cnt.raw_plans <- cnt.raw_plans + 1;
      let actual = r.cost.index_visits + r.cost.data_visits in
      if actual > 0 then cnt.est_over_actual <- (plan.est_total /. float_of_int actual) :: cnt.est_over_actual;
      (h, r, fun q -> Wire.Planned_result { plan = Plan.describe plan; result = q })
    | _ -> failwith "replay: not a read"
  in
  let h_eval = h in
  let h = Spans.next t h s_enc_resp in
  if h_eval >= 0 then cnt.eval_ns <- cnt.eval_ns + Spans.duration t h_eval;
  Obuf.clear rd.rbuf;
  Wire.encode_response rd.rbuf ~id:i (wrap (W.wire_result r));
  let h = Spans.next t h s_dec_resp in
  let s, pos, len = payload rd.rbuf in
  let resp = match Wire.decode_response_at s ~pos ~len with Ok d -> d.msg | Error e -> failwith e in
  Spans.leave2 t h;
  cnt.n <- cnt.n + 1;
  if W.check_reply rr resp <> None then cnt.wrong <- cnt.wrong + 1;
  cnt.index_visits <- cnt.index_visits + r.cost.index_visits;
  cnt.data_visits <- cnt.data_visits + r.cost.data_visits;
  cnt.n_candidates <- cnt.n_candidates + r.n_candidates;
  cnt.n_certain <- cnt.n_certain + r.n_certain;
  cnt.response_bytes <- cnt.response_bytes + Obuf.length rd.rbuf

(* The most spans [replay_read] records: the root and six stages. *)
let spans_per_read = 7

let replay_reads t rd cnt stream ~count =
  let n = Array.length stream in
  for i = 0 to count - 1 do
    replay_read t rd cnt i stream.(i mod n)
  done

(* Requests whose replay takes about [budget_s] (at least one). *)
let calibrate rd stream ~budget_s =
  let off = recorder ~enabled:false ~capacity:0 () in
  let t0 = Clock.now_ns () in
  let i = ref 0 in
  while Clock.now_ns () - t0 < W.secs_ns budget_s do
    replay_read off rd (read_counts ()) !i stream.(!i mod Array.length stream);
    incr i
  done;
  max 1 !i

(* Tracing overhead: how much longer the same [count] reads take to
   replay with the recorder on than with a disabled recorder, in
   percent.  Adjacent passes of a few milliseconds differ by several percent on
   a shared host, more than the effect, so on and off passes alternate
   in [pairs] adjacent pairs (which side goes first alternates too)
   and the result is the median of the pairs' ratios.  Every pass
   starts with an empty minor heap, so both sides of a pair do the
   same collection work. *)
let overhead rd stream ~count ~pairs =
  let off = recorder ~enabled:false ~capacity:0 () in
  let on = recorder ~capacity:(count * spans_per_read) () in
  let pass t =
    Spans.clear t;
    let cnt = read_counts () in
    Gc.minor ();
    let t0 = Clock.now_ns () in
    replay_reads t rd cnt stream ~count;
    float_of_int (Clock.now_ns () - t0)
  in
  let ratio p =
    if p mod 2 = 0 then
      let a = pass off in
      pass on /. a
    else
      let b = pass on in
      b /. pass off
  in
  (Stats.median (Array.init pairs ratio) -. 1.0) *. 100.0

(* ------------------------------------------------------------------ *)
(* Writes: the mutator's path for one acknowledged write *)

let replay_write t ~wal ~a ~b ~cp i m =
  Spans.set_request t i;
  (* Dk_update.add_edge computes the new edge's local similarity
     itself; this pure probe times that step alone, outside the write,
     so the write span holds only what the mutator does. *)
  (match m with
  | Wal.Add_edge { u; v } ->
    timed t s_local_sim (fun () ->
        ignore (Dk_update.update_local_similarity a ~u:(Index_graph.cls a u) ~v:(Index_graph.cls a v)))
  | _ -> ());
  let root = Spans.enter t s_write in
  timed t s_wal_append (fun () -> Wal.append wal m);
  if (i + 1) mod 64 = 0 then timed t s_wal_sync (fun () -> Wal.sync wal);
  (match m with
  | Wal.Add_edge { u; v } -> timed t s_add_edge (fun () -> Dk_update.add_edge a u v)
  | Wal.Remove_edge { u; v } -> timed t s_remove_edge (fun () -> Dk_update.remove_edge a u v)
  | _ -> ());
  timed t s_prepare (fun () -> Index_graph.prepare_serving a);
  timed t s_apply (fun () -> b := Checkpoint.apply_mutation !b m);
  (* Keeps the checkpoint directory recoverable; not a measured stage. *)
  Checkpoint.log_mutation cp m;
  Spans.leave t root

(* The mutator's path, traced, over the writer's sliding window of the
   workload's edges — adds and removes, so both Dk_update paths are
   timed — for about [budget_s] and at least 64 records (one fsync),
   then the live edges are removed again.  A write costs milliseconds
   at scale 2000 (prepare_serving is linear in the index), so the
   window is bounded by time, not by the length of a run's stream.
   mixed-write checkpoints every [W.mixed_checkpoint_every] records, as
   its server does. *)
let traced_writes t ~wal ~a ~b ~cp ~ckpt_every edges ~budget_s =
  let k = Array.length edges in
  let records = ref 0 in
  let log m =
    replay_write t ~wal ~a ~b ~cp !records m;
    incr records;
    if ckpt_every > 0 && !records mod ckpt_every = 0 then
      timed t s_ckpt_write (fun () -> ignore (Checkpoint.checkpoint_now cp a))
  in
  let add i = let u, v = edges.(i mod k) in Wal.Add_edge { u; v } in
  let remove i = let u, v = edges.(i mod k) in Wal.Remove_edge { u; v } in
  let stop = Clock.now_ns () + W.secs_ns budget_s in
  let step = ref 0 in
  while !records < 64 || Clock.now_ns () < stop do
    log (add !step);
    if !step >= W.live_edges then log (remove (!step - W.live_edges));
    incr step
  done;
  for j = max 0 (!step - W.live_edges) to !step - 1 do
    log (remove j)
  done

(* ------------------------------------------------------------------ *)

type outcome = {
  layers : (string * float) list;  (** per-layer metrics, by name *)
  wrong : int;  (** replayed reads whose answer differed from the oracle *)
  spans : Spans.t;
}

let file_size p = (Unix.stat p).Unix.st_size

let run (cfg : W.config) w (e2e : W.result) ~trace_dir =
  let scale = W.scale cfg w in
  let t = recorder ~capacity:200_000 () in
  let work = Proc.fresh_dir (Filename.concat cfg.work "replay") in
  (* Build: the dataset recipe's two stages, timed. *)
  let g = timed t s_xmark (fun () -> Xmark.graph ~seed:W.dataset_seed ~scale ()) in
  let idx0 = timed t s_build (fun () -> Dk_index.build g ~reqs:Dataset.reqs) in
  let n_nodes = Index_graph.n_nodes idx0 and n_edges = Index_graph.n_edges idx0 in
  let ds = W.dataset cfg w in
  let queries = Array.of_list ds.queries in
  let edges = W.write_edges cfg w ds in
  let cnt = read_counts () in
  (* The read stream the workload sends, and the index it reads.  The
     heap still holds the end-to-end run's oracle, the builds above and
     the stream's own oracle answers; compacting it first leaves about
     what a freshly started server holds.  Without that, replayed
     cold-read evaluations ran up to ~1.4x slower and their p50 came
     within a few percent of the served round trip's. *)
  let read_phase idx stream ~cached ~warm ~count =
    Gc.compact ();
    let rd = reader ~cached idx in
    if warm then
      replay_reads (recorder ~enabled:false ~capacity:0 ()) rd (read_counts ()) stream ~count:(Array.length stream);
    let w0 = Gc.minor_words () in
    replay_reads t rd cnt stream ~count;
    let words = (Gc.minor_words () -. w0) /. float_of_int count in
    let pass = calibrate rd stream ~budget_s:(if cfg.smoke then 0.002 else 0.005) in
    (rd, (overhead rd stream ~count:pass ~pairs:(if cfg.smoke then 101 else 401), words))
  in
  let read_count = if cfg.smoke then 200 else 2000 in
  let pre_reads =
    match w with
    | W.Hot_read ->
      let stream = W.path_stream ds.index queries ~seed:cfg.seed ~salt:1 in
      Some (read_phase ds.index stream ~cached:true ~warm:true ~count:read_count)
    | W.Mixed_write ->
      let stream = W.path_stream ds.index queries ~seed:cfg.seed ~salt:3 in
      Some (read_phase ds.index stream ~cached:true ~warm:true ~count:read_count)
    | W.Cold_read ->
      (* One period of the stream: every path nine times, every regular
         expression 25 times. *)
      let stream = W.cold_stream ds ~seed:cfg.seed in
      let count = if cfg.smoke then 200 else Array.length stream in
      Some (read_phase ds.index stream ~cached:false ~warm:false ~count)
    | W.Restart -> None
  in
  (* Planner and regular-expression probe, for workloads whose own
     stream does not plan. *)
  if w <> W.Cold_read then begin
    let pl = Planner.create (Index_graph.data ds.index) in
    Planner.register pl ~name:"index" ds.index;
    let pcnt = read_counts () in
    Array.iter
      (fun q ->
        let expr = Path_ast.seq_of_labels q in
        let root = Spans.enter t s_probe in
        let plan = timed t s_choose (fun () -> Planner.choose pl expr) in
        let r = timed t s_execute (fun () -> Planner.execute pl plan expr) in
        Spans.leave t root;
        pcnt.plans <- pcnt.plans + 1;
        if plan.Plan.access = Plan.Raw then pcnt.raw_plans <- pcnt.raw_plans + 1;
        let actual = r.cost.index_visits + r.cost.data_visits in
        if actual > 0 then pcnt.est_over_actual <- (plan.est_total /. float_of_int actual) :: pcnt.est_over_actual)
      queries;
    cnt.plans <- pcnt.plans;
    cnt.raw_plans <- pcnt.raw_plans;
    cnt.est_over_actual <- pcnt.est_over_actual;
    let exprs = List.map Path_parser.parse W.cold_regexes in
    for _ = 1 to 25 do
      List.iter (fun e -> timed t s_eval_expr (fun () -> ignore (Query_eval.eval_expr ds.index e))) exprs
    done
  end;
  (* Writes, on two copies as the server keeps them. *)
  let a = Index_serial.of_string (Index_serial.to_string ds.index) in
  let b = ref (Index_serial.of_string (Index_serial.to_string ds.index)) in
  let cp_dir = Proc.fresh_dir (Filename.concat work "data") in
  let cp =
    Checkpoint.start
      { (Checkpoint.default_config ~dir:cp_dir) with sync = Wal.Never; checkpoint_records = 0; checkpoint_bytes = 0; checkpoint_interval_s = 0.0 }
      a
  in
  let wal = Wal.create ~sync:Wal.Never (Filename.concat work "replay.wal") in
  let ckpt_every = if w = W.Mixed_write then W.mixed_checkpoint_every else 0 in
  traced_writes t ~wal ~a ~b ~cp ~ckpt_every edges ~budget_s:(if cfg.smoke then 0.2 else 2.0);
  (* restart recovers its workload's WAL: every edge added, logged
     as its server would log it. *)
  if w = W.Restart then
    Array.iter
      (fun (u, v) ->
        let m = Wal.Add_edge { u; v } in
        Dk_update.add_edge a u v;
        Checkpoint.log_mutation cp m)
      edges;
  let wal_bytes_per_record = float_of_int (Wal.bytes wal) /. float_of_int (max 1 (Wal.records wal)) in
  Wal.close wal;
  (* Persistence: recover a copy of the durable directory (checkpoint
     plus the WAL since it), then write a checkpoint of the result. *)
  let rec_dir = Filename.concat work "recover" in
  Proc.copy_dir cp_dir rec_dir;
  let seq = List.fold_left max 0 (Checkpoint.wal_seqs rec_dir) in
  let replayed =
    timed t s_wal_replay (fun () -> List.length (Wal.replay (Checkpoint.wal_file ~dir:rec_dir ~seq)).mutations)
  in
  let recovered = timed t s_recover (fun () -> Checkpoint.recover ~dir:rec_dir ()) in
  timed t s_ckpt_write (fun () -> ignore (Checkpoint.checkpoint_now cp a));
  let ckpt_bytes =
    let seqs = Checkpoint.checkpoint_seqs cp_dir in
    file_size (Checkpoint.checkpoint_file ~dir:cp_dir ~seq:(List.fold_left max 0 seqs))
  in
  ignore (Checkpoint.close cp a);
  let text_bytes = ref 0 in
  ignore
    (timed t s_clone (fun () ->
         let s = timed t s_to_string (fun () -> Index_serial.to_string a) in
         text_bytes := String.length s;
         timed t s_of_string (fun () -> Index_serial.of_string s)));
  let dkc = Filename.concat work "index.dkc" in
  timed t s_save_container (fun () -> Index_serial.save_container dkc a);
  ignore (timed t s_load_container (fun () -> Index_serial.load_container dkc));
  let container_bytes = file_size dkc in
  (* restart reads the recovered index, as its recovered servers do. *)
  let post_reads =
    match (w, recovered.Checkpoint.index) with
    | W.Restart, Some idx ->
      let stream = W.path_stream idx queries ~seed:cfg.seed ~salt:4 in
      Some (read_phase idx stream ~cached:true ~warm:false ~count:(W.restart_sweeps * Array.length stream))
    | W.Restart, None -> failwith "replay: recovery found no checkpoint"
    | _ -> None
  in
  let rd, (overhead_pct, alloc_words) = Option.get (if pre_reads <> None then pre_reads else post_reads) in
  (* Spans to metrics. *)
  let aggs = Spans.aggregate t in
  let agg s = Spans.find_agg aggs span_names.(s) in
  let pct s p =
    let a = agg s in
    if a.count = 0 then 0.0 else Stats.percentile_sorted a.durations p
  in
  let p50 s = pct s 0.5 in
  let ms s = p50 s /. 1e6 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let visits = cnt.index_visits + cnt.data_visits in
  let hits, misses = match rd.cache with Some c -> Validation_cache.stats c | None -> (0, 0) in
  let entries = match rd.cache with Some c -> Validation_cache.entry_count c | None -> 0 in
  let counts k = W.count e2e k in
  let layers =
    [
      ("wire.encode_request_ns", p50 s_enc_req);
      ("wire.decode_request_ns", p50 s_dec_req);
      ("wire.encode_response_ns", p50 s_enc_resp);
      ("wire.decode_response_ns", p50 s_dec_resp);
      ("wire.response_bytes", ratio cnt.response_bytes cnt.n);
      ("wire.alloc_words_per_read", alloc_words);
      ( "server.unattributed_us",
        Option.value ~default:0.0 (W.metric e2e "read_p50_us") -. (p50 s_request /. 1000.0) );
      ("server.served_inline_ratio", ratio (counts "served_inline") (counts "served"));
      ("server.snapshot_swaps_per_write", ratio (counts "snapshot_swaps") (counts "writes"));
      ("server.shed", float_of_int (counts "shed"));
      ("planner.choose_ns", p50 s_choose);
      ("planner.raw_plan_ratio", ratio cnt.raw_plans cnt.plans);
      ( "planner.est_over_actual_visits",
        if cnt.est_over_actual = [] then 0.0 else Stats.median (Array.of_list cnt.est_over_actual) );
      ("query_eval.eval_path_ns_p50", p50 s_eval_path);
      ("query_eval.eval_path_ns_p99", pct s_eval_path 0.99);
      ("query_eval.eval_expr_ns_p50", p50 s_eval_expr);
      ("query_eval.eval_expr_ns_p99", pct s_eval_expr 0.99);
      ("query_eval.index_visits_per_query", ratio cnt.index_visits cnt.n);
      ("query_eval.data_visits_per_query", ratio cnt.data_visits cnt.n);
      ("query_eval.ns_per_visit", ratio cnt.eval_ns visits);
      ("query_eval.certain_ratio", ratio cnt.n_certain (cnt.n_certain + cnt.n_candidates));
      ("validation_cache.hit_ratio", ratio hits (hits + misses));
      ("validation_cache.entries", float_of_int entries);
      ("dk_update.add_edge_ns", p50 s_add_edge);
      ("dk_update.remove_edge_ns", p50 s_remove_edge);
      ("dk_update.local_similarity_ns", p50 s_local_sim);
      ("index_graph.prepare_serving_ns", p50 s_prepare);
      ("index_graph.clone_ms", ms s_clone);
      ("index_graph.nodes", float_of_int n_nodes);
      ("index_graph.edges", float_of_int n_edges);
      ("wal.append_ns", p50 s_wal_append);
      ("wal.sync_us", p50 s_wal_sync /. 1000.0);
      ("wal.bytes_per_record", wal_bytes_per_record);
      ("wal.replay_ns_per_record", if replayed = 0 then 0.0 else p50 s_wal_replay /. float_of_int replayed);
      ("checkpoint.write_ms", ms s_ckpt_write);
      ("checkpoint.bytes", float_of_int ckpt_bytes);
      ("checkpoint.written", float_of_int (counts "checkpoints_written"));
      ("checkpoint.recover_ms", ms s_recover);
      ("checkpoint.apply_mutation_ns", p50 s_apply);
      ("index_serial.to_string_ms", ms s_to_string);
      ("index_serial.of_string_ms", ms s_of_string);
      ("index_serial.text_bytes", float_of_int !text_bytes);
      ("index_serial.save_container_ms", ms s_save_container);
      ("index_serial.load_container_ms", ms s_load_container);
      ("index_serial.container_bytes", float_of_int container_bytes);
      ("datagen.xmark_ms", ms s_xmark);
      ("dk_index.build_ms", ms s_build);
      ("trace.overhead_pct", overhead_pct);
    ]
  in
  Proc.mkdir_p trace_dir;
  Json.to_file
    (Filename.concat trace_dir (W.to_string w ^ ".trace.json"))
    (Spans.to_trace_json ~process:("dkbench " ^ W.to_string w) t);
  Proc.rm_rf work;
  { layers; wrong = cnt.wrong; spans = t }

(* What makes a traced run fail: wrong replayed answers, a recorder
   that slows the replay by more than 3%, or a replayed read slower
   than the served one on the read workloads, where the replay must be
   a part of what the server does per request. *)
let max_overhead_pct = 3.0

let problems w o =
  let layer k = List.assoc k o.layers in
  (if o.wrong > 0 then [ Printf.sprintf "replay gave %d wrong answers" o.wrong ] else [])
  @ (if layer "trace.overhead_pct" > max_overhead_pct then
       [ Printf.sprintf "trace.overhead_pct %.2f > %.0f" (layer "trace.overhead_pct") max_overhead_pct ]
     else [])
  @
  match w with
  | W.Hot_read | W.Cold_read when layer "server.unattributed_us" < 0.0 ->
    [ "server.unattributed_us < 0: the replay does not represent the served path" ]
  | _ -> []

(* Per-span self time for layers.json. *)
let span_table t =
  let aggs = Spans.aggregate t in
  Json.Obj
    (List.filter_map
       (fun (name, (a : Spans.agg)) ->
         if a.count = 0 then None
         else
           Some
             ( name,
               Json.Obj
                 [
                   ("count", Json.int a.count);
                   ("self_ns", Json.int a.self_ns);
                   ("p50_ns", Json.Num (Stats.percentile_sorted a.durations 0.5));
                   ("p99_ns", Json.Num (Stats.percentile_sorted a.durations 0.99));
                 ] ))
       aggs)
