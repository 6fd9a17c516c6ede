open Dkindex_graph
open Dkindex_core
module Cost = Dkindex_pathexpr.Cost
module Plan = Dkindex_planner.Plan
module Planner = Dkindex_planner.Planner

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  deadline_s : float;
  idle_timeout_s : float;
  max_frame : int;
  snapshot_path : string option;
  max_conns : int;
      (* admission control: accepted connections beyond this budget are
         answered with one Overloaded frame and closed; <= 0 disables *)
  read_progress_deadline_s : float;
      (* a started frame must complete within this window or the
         connection is evicted (slow-loris defense); <= 0 disables *)
  scrub_interval_s : float;
      (* background at-rest scrub cadence (needs durability); <= 0
         disables *)
  scrub_max_bytes_per_s : int;  (* scrub read-rate bound; <= 0 unlimited *)
  anti_entropy_interval_s : float;
      (* replica-side digest comparison cadence; <= 0 disables *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7411;
    workers = 2;
    queue_depth = 256;
    deadline_s = 10.0;
    idle_timeout_s = 60.0;
    max_frame = Wire.max_frame_default;
    snapshot_path = None;
    max_conns = 0;
    read_progress_deadline_s = 0.0;
    scrub_interval_s = 0.0;
    scrub_max_bytes_per_s = 0;
    anti_entropy_interval_s = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Connections.  The main domain owns the read side (buffer, frame
   extraction) and is the only closer of the file descriptor; any
   domain may write a response under [wmu].  [closed] is flipped under
   [wmu] before the descriptor is closed, so a writer holding [wmu]
   can never race a close into a reused descriptor.  [wbuf] is the
   shared frame-encoding buffer, also guarded by [wmu]: responses are
   encoded straight into it (no per-reply [Buffer.to_bytes]) and the
   main domain batches several inline replies into one write. *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  wmu : Mutex.t;
  wbuf : Obuf.t;
  mutable closed : bool;
  mutable detached : bool;
      (* handed to the replication hub: the main loop stops reading,
         never closes the fd, and drops the conn from its table *)
  mutable last_active : float;
  mutable frame_start : float;
      (* wall time the currently buffered partial frame started, 0.0
         when the read buffer holds no incomplete frame — the clock
         the read-progress deadline runs against *)
}

type pending = { conn : conn; id : int; req : Wire.request; arrival : float }

(* The write queue is the only coordination point of the mutator.  It
   carries client requests, replication-stream events, and integrity-
   domain jobs ([Wrun], see [on_mutator]); the single mutator domain
   applies them in FIFO order, so replica reads observe mutations in
   primary order.  Running the integrity work on the mutator is what
   makes the digest tracker trivially race-free: a refresh always sees
   exactly the published state together with its committed marks, and
   repairs ride the same apply/swap path as every other mutation. *)
type wjob = Wreq of pending | Wrepl of Replication.event | Wrun of (unit -> unit)

(* The serving snapshot: a frozen index plus its swap generation.
   Readers load it through one [Atomic.t]; once written to, the
   mutator maintains two physical copies of the index ("left-right"):
   it mutates the spare copy, publishes it with a single atomic swap,
   and catches the retired copy up before the next write — after
   waiting for every reader slot to have moved past the retired
   generation.  The spare is copied from the serving index by the
   first write that needs one ([catch_up]).  Readers therefore never
   take a lock and never observe a half-applied mutation. *)
type snap = { idx : Index_graph.t; gen : int }

type state = {
  cfg : config;
  serving : snap Atomic.t;
  slots : int Atomic.t array;
      (* one per reader domain (slot 0 = the event-loop domain's
         inline reader): -1 when idle, else the generation being
         read *)
  mutable spare : Index_graph.t option;
      (* mutator-owned back copy; [None] until a mutation needs one,
         and again after a failed application left it suspect: copy the
         serving index before the next mutation *)
  mutable lag : Wal.mutation list;
      (* mutations in serving but not yet in spare, newest first *)
  swaps : int Atomic.t;
  spare_copies : int Atomic.t;  (* [Index_graph.copy] calls made for a spare *)
  mutable wake : unit -> unit;  (* nudges the event loop (self-pipe) *)
  mutable evloop_backend : string;
  durability : Checkpoint.t option;
  readq : pending Bqueue.t;
  writeq : wjob Bqueue.t;
  in_flight : int Atomic.t;
  stop : bool Atomic.t;
  served : int Atomic.t;
  served_inline : int Atomic.t;
  shed : int Atomic.t;
  proto_errors : int Atomic.t;
  deadline_expired : int Atomic.t;
  started_at : float;
  evicted_slow_clients : int Atomic.t;
  rejected_at_admission : int Atomic.t;
  (* replication / failover *)
  epoch : int Atomic.t;  (* our primary epoch (a replica carries its lineage's) *)
  max_seen : int Atomic.t;  (* highest epoch observed from any peer *)
  is_primary : bool Atomic.t;
  fenced : bool Atomic.t;  (* a peer proved a newer primary exists *)
  hub : Replication.hub option Atomic.t;
  mk_hub : Checkpoint.t -> Replication.hub;  (* for promotion *)
  replica : Replication.replica option;
  repl_apply_errors : int Atomic.t;
  (* integrity: digests, scrubbing, anti-entropy *)
  integrity : Integrity.t;
  digest_pos : (int * int) Atomic.t;
      (* write-stream position (primary WAL coordinates) the published
         state corresponds to; (-1, 0) when it cannot be stamped.  Two
         servers' digests are comparable only at equal positions. *)
  repl_records_seen : int Atomic.t;
  repl_drop_nth : int;
      (* test hook: silently skip the nth fresh replicated record
         (divergence injection); 0 = never *)
  scrub_passes : int Atomic.t;
  scrub_corruptions : int Atomic.t;
  ranges_repaired : int Atomic.t;
  replica_divergences : int Atomic.t;
  resyncs : int Atomic.t;
  anti_entropy_rounds : int Atomic.t;
  (* planner / statistics observability *)
  vcache_mu : Mutex.t;
  mutable vcaches : Validation_cache.t list;
      (* the validation caches readers hold, for the aggregate
         hit/miss/eviction counters in Stats *)
  mutable vcache_retired : int * int * int;
      (* hits, misses and evictions of the caches readers dropped, so
         the exported counters never decrease *)
  stats_mu : Mutex.t;
  mutable stats_srcs : Index_stats.source list;
      (* generation-gated Index_stats per physical copy (<= 2 live) *)
  planned : int Atomic.t;
  planned_index_scans : int Atomic.t;
  planned_raw_scans : int Atomic.t;
  explains : int Atomic.t;
  plan_fallbacks : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Snapshot acquisition (readers) and the swap/grace protocol
   (mutator).  A reader publishes the generation it is about to read,
   then re-checks the serving pointer: if a swap raced in between it
   retries, so once the loop exits the mutator is guaranteed to see
   either the published (current) generation or a later one in the
   slot.  The mutator's grace wait only blocks on slots still
   publishing a generation {e older} than the current one — i.e. on
   requests that were already in flight on the retired copy. *)

let snap_acquire state slot =
  let rec go () =
    let s = Atomic.get state.serving in
    Atomic.set slot s.gen;
    if (Atomic.get state.serving).gen = s.gen then s
    else begin
      Atomic.set slot (-1);
      go ()
    end
  in
  go ()

let snap_release slot = Atomic.set slot (-1)

let with_snapshot state slot f =
  let s = snap_acquire state slot in
  Fun.protect ~finally:(fun () -> snap_release slot) (fun () -> f s)

(* Mutator-side: wait until no reader is still on a generation older
   than [gen].  Bounded by the duration of the in-flight requests that
   acquired before the last swap (the same wait a writer-priority
   rw-lock would impose), but paid before the {e next} mutation
   rather than on the acknowledgement path. *)
let wait_readers state gen =
  Array.iter
    (fun slot ->
      let spins = ref 0 in
      let busy () =
        let v = Atomic.get slot in
        v >= 0 && v < gen
      in
      while busy () do
        incr spins;
        if !spins < 200 then Domain.cpu_relax () else Unix.sleepf 0.0002
      done)
    state.slots

(* The spare, up to date with the serving content.  Called by the
   mutator before every mutation; the grace wait happens here, off the
   acknowledgement path of the previous write.  This is the one place
   a spare is built: when there is none yet (nothing has been written
   since launch or since a snapshot install) or the lag cannot be
   replayed onto the one there is, it is [Index_graph.copy] of the
   serving index, which only reads it, so readers still on it are
   undisturbed. *)
let catch_up state =
  let copy_serving () =
    let spare = Index_graph.copy (Atomic.get state.serving).idx in
    Atomic.incr state.spare_copies;
    Integrity.attach state.integrity spare;
    spare
  in
  let spare =
    match state.spare with
    | None -> copy_serving ()
    | Some spare when state.lag = [] -> spare
    | Some spare -> (
      wait_readers state (Atomic.get state.serving).gen;
      (* The serving side applied the lag; a spare that cannot replay
         it would diverge, so it is rebuilt instead. *)
      try List.fold_left Checkpoint.apply_mutation spare (List.rev state.lag)
      with _ -> copy_serving ())
  in
  state.spare <- Some spare;
  state.lag <- [];
  spare

(* Publish [idx'] (the mutated spare) as the new serving snapshot and
   retire the old one into the spare slot, remembering [muts] for
   catch-up. *)
let swap_in state idx' muts =
  Index_graph.prepare_serving idx';
  let old = Atomic.get state.serving in
  Atomic.set state.serving { idx = idx'; gen = old.gen + 1 };
  Atomic.incr state.swaps;
  state.spare <- Some old.idx;
  state.lag <- muts

(* Publish a mutated spare with the digest tracker kept in step.
   Wholesale mutations can return a brand-new index object with no
   tracer installed; attaching is idempotent. *)
let publish state idx' muts =
  Integrity.attach state.integrity idx';
  swap_in state idx' muts;
  Integrity.commit state.integrity

(* Install a wholesale replacement (replica snapshot bootstrap): the
   serving copy is fresh and the old spare is dropped, so nothing
   retired is ever mutated and no grace wait is needed — readers still
   on the old copies finish on them and the GC reclaims them after.
   The next mutation copies the new serving index into a spare. *)
let install state serving =
  Index_graph.prepare_serving serving;
  let old = Atomic.get state.serving in
  Atomic.set state.serving { idx = serving; gen = old.gen + 1 };
  Atomic.incr state.swaps;
  state.spare <- None;
  state.lag <- []

(* ------------------------------------------------------------------ *)
(* Response writing.  All replies are encoded into the connection's
   [wbuf] under [wmu] and flushed from its backing bytes directly —
   no intermediate copy.  Workers and the mutator flush immediately;
   the main domain's inline fast path batches every reply of a frame
   batch and flushes once ([flush_replies]), so a pipelined client
   costs one [write] per batch instead of one per request.  Sockets are
   non-blocking: [Faults.write_all] waits out a full send buffer and
   gives up on a peer stalled for 30 s, which closes the connection. *)

(* Must be called with [conn.wmu] held. *)
let flush_locked conn =
  if (not conn.closed) && Obuf.length conn.wbuf > 0 then (
    try Faults.write_all None conn.fd (Obuf.base conn.wbuf) 0 (Obuf.length conn.wbuf)
    with Unix.Unix_error _ -> conn.closed <- true);
  Obuf.clear conn.wbuf

let send_response conn ~id resp =
  Mutex.lock conn.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wmu) @@ fun () ->
  if not conn.closed then begin
    Wire.encode_response conn.wbuf ~id resp;
    flush_locked conn
  end

(* Main-domain fast path: append without flushing. *)
let buffer_response conn ~id resp =
  Mutex.lock conn.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wmu) @@ fun () ->
  if not conn.closed then Wire.encode_response conn.wbuf ~id resp

let flush_responses conn =
  Mutex.lock conn.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wmu) @@ fun () ->
  flush_locked conn

(* ------------------------------------------------------------------ *)
(* Query evaluation (shared by the worker domains and the main
   domain's inline fast path) *)

let empty_result =
  { Query_eval.nodes = []; cost = { Cost.index_visits = 0; data_visits = 0 }; n_candidates = 0; n_certain = 0 }

let wire_result ~gen ~age_ms (r : Query_eval.result) : Wire.query_result =
  {
    nodes = Array.of_list r.nodes;
    index_visits = r.cost.Cost.index_visits;
    data_visits = r.cost.Cost.data_visits;
    n_candidates = r.n_candidates;
    n_certain = r.n_certain;
    generation = gen;
    age_ms;
  }

(* Per-reader state: validation caches plus cost-based planners.  The
   serving snapshot alternates between the two physical copies as
   writes land, so each reader keeps one cache per copy — two live
   entries keyed by physical identity; a third copy (a spare rebuilt
   after a failed write, a snapshot install) drops the older entry.
   Planners come in a cached and an uncached flavor so Query_planned
   honors the [no_cache] flag; a cached planner is keyed by its cache,
   so one whose cache was dropped is never used again. *)
type reader = {
  caches : Validation_cache.t list ref;
  planners : (Validation_cache.t option * Planner.t) list ref;
      (* (the cache it scans through, planner) *)
}

let new_reader () = { caches = ref []; planners = ref [] }

let reader_cache state rd idx =
  match List.find_opt (fun c -> Validation_cache.index c == idx) !(rd.caches) with
  | Some c -> c
  | None ->
    let c = Validation_cache.create idx in
    let dropped =
      match !(rd.caches) with
      | prev :: dropped ->
        rd.caches := [ c; prev ];
        dropped
      | [] ->
        rd.caches := [ c ];
        []
    in
    (* Register for the aggregate vcache_* stats, and retire the
       dropped cache in the same critical section: its counters move
       into the retired totals as it leaves the list, so a concurrent
       Stats never sees them twice or not at all. *)
    Mutex.lock state.vcache_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock state.vcache_mu) (fun () ->
        List.iter
          (fun d ->
            let h, m = Validation_cache.stats d in
            let rh, rm, re = state.vcache_retired in
            state.vcache_retired <- (rh + h, rm + m, re + Validation_cache.evictions d))
          dropped;
        state.vcaches <- c :: List.filter (fun x -> not (List.memq x dropped)) state.vcaches);
    c

(* The server-side planner per snapshot: the serving index (named
   "index") plus the raw data graph the planner always carries.  Its
   job is per-query routing between the index scan and the raw
   fallback, priced from the live catalog (generation-gated, so update
   churn refreshes it). *)
let reader_planner state rd ~use_cache idx =
  let cache = if use_cache then Some (reader_cache state rd idx) else None in
  let matches (c, pl) =
    match (c, cache) with
    | Some c, Some want -> c == want
    | None, None -> ( match Planner.index pl with Some i -> i == idx | None -> false)
    | Some _, None | None, Some _ -> false
  in
  match List.find_opt matches !(rd.planners) with
  | Some (_, pl) -> pl
  | None ->
    let pl = Planner.create (Index_graph.data idx) in
    Planner.register pl ~name:"index" ?cache idx;
    (* cap at 4 live planners: {cached, uncached} x {two copies} *)
    rd.planners :=
      (cache, pl) :: (match !(rd.planners) with a :: b :: c :: _ -> [ a; b; c ] | l -> l);
    pl

let eval_labels ?cache idx labels =
  let pool = Data_graph.pool (Index_graph.data idx) in
  let codes = List.map (Label.Pool.find_opt pool) labels in
  if labels = [] || List.exists Option.is_none codes then empty_result
  else Query_eval.eval_path ?cache idx (Array.of_list (List.map Option.get codes))

(* Index statistics are generation-gated ({!Index_stats.source}): a
   Stats request on an unchanged index returns the memoized record
   instead of sweeping every live index node.  Sources are keyed by
   physical copy like the reader caches. *)
let stats_source state idx =
  Mutex.lock state.stats_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.stats_mu) @@ fun () ->
  match
    List.find_opt (fun s -> Index_stats.source_index s == idx) state.stats_srcs
  with
  | Some s -> s
  | None ->
    let s = Index_stats.source idx in
    (state.stats_srcs <-
       match state.stats_srcs with
       | prev :: _ -> [ s; prev ]
       | [] -> [ s ]);
    s

let vcache_kvs state =
  Mutex.lock state.vcache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.vcache_mu) @@ fun () ->
  let rh, rm, re = state.vcache_retired in
  let hits = ref rh and misses = ref rm and entries = ref 0 and evictions = ref re in
  let caches = state.vcaches in
  List.iter
    (fun c ->
      let h, m = Validation_cache.stats c in
      hits := !hits + h;
      misses := !misses + m;
      entries := !entries + Validation_cache.entry_count c;
      evictions := !evictions + Validation_cache.evictions c)
    caches;
  [
    ("vcache_instances", string_of_int (List.length caches));
    ("vcache_hits", string_of_int !hits);
    ("vcache_misses", string_of_int !misses);
    ("vcache_entries", string_of_int !entries);
    ("vcache_evictions", string_of_int !evictions);
  ]

let stats_kvs state idx =
  let st = Index_stats.get (stats_source state idx) in
  let b v = if v then "true" else "false" in
  [
    ("n_index_nodes", string_of_int st.Index_stats.n_nodes);
    ("n_index_edges", string_of_int st.n_edges);
    ("n_data_nodes", string_of_int st.n_data_nodes);
    ("compression", Printf.sprintf "%.3f" st.compression);
    ("largest_extent", string_of_int st.largest_extent);
    ("generation", string_of_int (Index_graph.generation idx));
    ("served", string_of_int (Atomic.get state.served));
    ("served_inline", string_of_int (Atomic.get state.served_inline));
    ("shed", string_of_int (Atomic.get state.shed));
    ("protocol_errors", string_of_int (Atomic.get state.proto_errors));
    ("deadline_expired", string_of_int (Atomic.get state.deadline_expired));
    ("read_queue_depth", string_of_int (Bqueue.length state.readq));
    ("write_queue_depth", string_of_int (Bqueue.length state.writeq));
    ("queue_capacity", string_of_int state.cfg.queue_depth);
    ("in_flight", string_of_int (Atomic.get state.in_flight));
    ("workers", string_of_int state.cfg.workers);
    ("evloop_backend", state.evloop_backend);
    ("snapshot_swaps", string_of_int (Atomic.get state.swaps));
    ("spare_copies", string_of_int (Atomic.get state.spare_copies));
    ("role", if Atomic.get state.is_primary then "primary" else "replica");
    ("epoch", string_of_int (Atomic.get state.epoch));
    ("max_seen_epoch", string_of_int (Atomic.get state.max_seen));
    ("fenced", b (Atomic.get state.fenced));
    ("repl_apply_errors", string_of_int (Atomic.get state.repl_apply_errors));
    ("durability", match state.durability with Some _ -> "wal+checkpoint" | None -> "none");
    ("uptime_s", Printf.sprintf "%.1f" (Unix.gettimeofday () -. state.started_at));
    ("evicted_slow_clients", string_of_int (Atomic.get state.evicted_slow_clients));
    ("rejected_at_admission", string_of_int (Atomic.get state.rejected_at_admission));
    ("planned_queries", string_of_int (Atomic.get state.planned));
    ("planned_index_scans", string_of_int (Atomic.get state.planned_index_scans));
    ("planned_raw_scans", string_of_int (Atomic.get state.planned_raw_scans));
    ("explain_queries", string_of_int (Atomic.get state.explains));
    ("plan_fallbacks", string_of_int (Atomic.get state.plan_fallbacks));
    ("scrub_passes", string_of_int (Atomic.get state.scrub_passes));
    ("scrub_corruptions_found", string_of_int (Atomic.get state.scrub_corruptions));
    ("ranges_repaired", string_of_int (Atomic.get state.ranges_repaired));
    ("replica_divergences", string_of_int (Atomic.get state.replica_divergences));
    ("integrity_resyncs", string_of_int (Atomic.get state.resyncs));
    ("anti_entropy_rounds", string_of_int (Atomic.get state.anti_entropy_rounds));
  ]
  @ vcache_kvs state
  @ (match state.durability with Some d -> Checkpoint.stats d | None -> [])
  @ (match Atomic.get state.hub with Some h -> Replication.hub_stats h | None -> [])
  @ (match state.replica with Some r -> Replication.replica_stats r | None -> [])

(* How stale is the data a read is answered from?  0 on a primary (and
   on a promoted replica); on a replica, the milliseconds since the
   primary was last heard from — the same clock the staleness-bound
   refusal runs against.  A replica that never synced answers no reads
   (they are refused [`Stale]), so the [None] arm is unreachable on
   the read path; u32-max keeps it honest anyway. *)
let read_age_ms state =
  match state.replica with
  | None -> 0
  | Some r -> (
    match Replication.contact_age_s r with
    | Some a -> int_of_float (a *. 1000.0)
    | None -> 0xffffffff)

let handle_read state (snap : snap) rd req : Wire.response =
  let idx = snap.idx in
  let cache flags = if flags.Wire.no_cache then None else Some (reader_cache state rd idx) in
  let wire_result r = wire_result ~gen:snap.gen ~age_ms:(read_age_ms state) r in
  match req with
  | Wire.Ping -> Wire.Pong
  | Wire.Stats -> Wire.Stats_reply (stats_kvs state idx)
  | Wire.Query { flags; expr } ->
    Wire.Result (wire_result (Query_eval.eval_expr ?cache:(cache flags) idx expr))
  | Wire.Query_path { flags; labels } ->
    Wire.Result (wire_result (eval_labels ?cache:(cache flags) idx labels))
  | Wire.Has_edge { u; v } ->
    (* Total on arbitrary ids: a node outside the graph trivially has
       no edges (the history harness probes ids from its own dataset
       recipe, which need not match ours). *)
    let g = Index_graph.data idx in
    let n = Data_graph.n_nodes g in
    Wire.Edge_reply
      {
        present = u >= 0 && u < n && v >= 0 && v < n && Data_graph.has_edge g u v;
        generation = snap.gen;
        age_ms = read_age_ms state;
      }
  | Wire.Batch_query { flags; paths } ->
    let cache = cache flags in
    Wire.Batch_result
      (Array.of_list (List.map (fun p -> wire_result (eval_labels ?cache idx p)) paths))
  | Wire.Query_planned { flags; expr } ->
    let pl = reader_planner state rd ~use_cache:(not flags.Wire.no_cache) idx in
    let fb0 = Planner.fallbacks pl in
    let plan, r = Planner.eval_planned pl expr in
    Atomic.incr state.planned;
    (match plan.Plan.access with
    | Plan.Raw -> Atomic.incr state.planned_raw_scans
    | Plan.Scan _ -> Atomic.incr state.planned_index_scans);
    let fell = Planner.fallbacks pl - fb0 in
    if fell > 0 then ignore (Atomic.fetch_and_add state.plan_fallbacks fell);
    Wire.Planned_result { plan = Plan.describe plan; result = wire_result r }
  | Wire.Explain { expr } ->
    let pl = reader_planner state rd ~use_cache:true idx in
    Atomic.incr state.explains;
    Wire.Explain_reply (Planner.explain pl expr)
  | _ -> Wire.Error_reply { code = `Protocol; message = "write request on read path" }

let expired state p =
  state.cfg.deadline_s > 0.0 && Unix.gettimeofday () -. p.arrival > state.cfg.deadline_s

let deadline_reply state =
  Atomic.incr state.deadline_expired;
  Wire.Error_reply { code = `Deadline; message = "deadline exceeded" }

(* Ping and Stats stay answerable on a stale replica (they are how an
   operator finds out it is stale); queries are refused. *)
let stale_read state req =
  match state.replica with
  | Some r -> (
    match req with
    | Wire.Ping | Wire.Stats -> false
    | _ -> Replication.stale r)
  | None -> false

let worker_loop state slot () =
  let rd = new_reader () in
  let rec go () =
    match Bqueue.pop state.readq with
    | None -> ()
    | Some p ->
      (if not p.conn.closed then
         let resp =
           if expired state p then deadline_reply state
           else if stale_read state p.req then
             Wire.Error_reply { code = `Stale; message = "replica outside staleness bound" }
           else
             try
               with_snapshot state slot (fun snap -> handle_read state snap rd p.req)
             with e -> Wire.Error_reply { code = `App; message = Printexc.to_string e }
         in
         send_response p.conn ~id:p.id resp;
         Atomic.incr state.served);
      Atomic.decr state.in_flight;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The mutator: all updates, applied in FIFO order to the spare copy
   and published with an atomic snapshot swap (see [snap] above). *)

(* The loggable mutations.  Everything the WAL replays goes through
   {!Checkpoint.apply_mutation}, the same code path recovery uses, so
   live application and replay cannot diverge. *)
let mutation_of_req : Wire.request -> Wal.mutation option = function
  | Wire.Add_edge { u; v } -> Some (Wal.Add_edge { u; v })
  | Wire.Remove_edge { u; v } -> Some (Wal.Remove_edge { u; v })
  | Wire.Add_subgraph { graph; reqs } -> Some (Wal.Add_subgraph { graph; reqs })
  | Wire.Promote pairs -> Some (Wal.Promote pairs)
  | Wire.Demote reqs -> Some (Wal.Demote reqs)
  | _ -> None

let serving_idx state = (Atomic.get state.serving).idx

(* The [--snapshot] file, durable before it is acknowledged: temp
   file, fsync, rename, fsync of the directory. *)
let save_snapshot path idx =
  let { Index_serial.bytes; off; len } = Index_serial.encode idx in
  Checkpoint.write_atomic (Filename.dirname path) (Filename.basename path) bytes off len

let not_primary_reply state : Wire.response =
  match state.replica with
  | Some r ->
    let rc = Replication.rconfig_of r in
    Wire.Not_primary { host = rc.Replication.primary_host; port = rc.Replication.primary_port }
  | None -> Wire.Not_primary { host = state.cfg.host; port = state.cfg.port }

(* Promotion (operator request or failover watchdog), run by the
   mutator.  Epoch = 1 + the highest epoch observed anywhere,
   persisted before the role flips so a restart cannot resurrect the
   old epoch — if it cannot be persisted, the promotion is refused and
   the replica keeps its role and epoch; then the replica tailer is
   retired and (with a data directory) a hub is opened for new
   subscribers. *)
let do_promote state : Wire.response =
  let e = max (Atomic.get state.epoch) (Atomic.get state.max_seen) + 1 in
  let persist d = Replication.store_epoch ~dir:(Checkpoint.dir d) e in
  if Atomic.get state.is_primary then
    Wire.Error_reply { code = `App; message = "already primary" }
  else
    match Option.iter persist state.durability with
    | exception ex ->
      Wire.Error_reply
        { code = `App; message = "promotion refused: epoch not persisted: " ^ Printexc.to_string ex }
    | () ->
      (* Start the new reign on a clean generation: subscribers to the
         new primary bootstrap from a checkpoint that includes
         everything replicated so far. *)
      Option.iter
        (fun d -> match Checkpoint.checkpoint_now d (serving_idx state) with Ok () | Error _ -> ())
        state.durability;
      Atomic.set state.epoch e;
      Atomic.set state.max_seen e;
      Option.iter Replication.mark_promoted state.replica;
      (match (state.durability, Atomic.get state.hub) with
      | Some d, None -> Atomic.set state.hub (Some (state.mk_hub d))
      | _ -> ());
      Atomic.set state.fenced false;
      Atomic.set state.is_primary true;
      Wire.Ok_reply { generation = Index_graph.generation (serving_idx state); epoch = e }

let apply_write state (p : pending) : Wire.response =
  let ok () =
    Wire.Ok_reply
      { generation = Index_graph.generation (serving_idx state); epoch = Atomic.get state.epoch }
  in
  let app msg : Wire.response = Error_reply { code = `App; message = msg } in
  try
    match mutation_of_req p.req with
    | Some m -> (
      if not (Atomic.get state.is_primary) then not_primary_reply state
      else if Atomic.get state.fenced then Wire.Fenced { epoch = Atomic.get state.max_seen }
      else
        match state.durability with
        | Some d when Checkpoint.read_only d -> Wire.Read_only
        | durability -> (
          let idx' =
            try Checkpoint.apply_mutation (catch_up state) m
            with e ->
              (* The spare may be half-mutated; drop it so the next
                 mutation copies a fresh one.  The serving side is
                 untouched. *)
              state.spare <- None;
              raise e
          in
          Integrity.note_mutation state.integrity m;
          (* Log after applying, before acknowledging: the WAL holds
             only mutations that succeeded, and nothing is acknowledged
             until it is logged.  A WAL failure degrades the server to
             read-only — the published application stands (it can be at
             most this one unacknowledged mutation ahead of the durable
             state) and no further writes are accepted. *)
          match durability with
          | None ->
            publish state idx' [ m ];
            ok ()
          | Some d -> (
            match Checkpoint.log_mutation d m with
            | () ->
              publish state idx' [ m ];
              Atomic.set state.digest_pos (Checkpoint.wal_position d);
              ok ()
            | exception e ->
              Checkpoint.note_wal_failure d (Printexc.to_string e);
              publish state idx' [ m ];
              (* Applied but not logged: the published state is ahead
                 of any WAL position. *)
              Atomic.set state.digest_pos (-1, 0);
              Wire.Read_only)))
    | None -> (
      match p.req with
      | Wire.Snapshot -> (
        match (state.durability, state.cfg.snapshot_path) with
        | Some d, _ -> (
          match Checkpoint.checkpoint_now d (serving_idx state) with
          | Ok () -> ok ()
          | Error msg -> app ("checkpoint failed: " ^ msg))
        | None, Some path ->
          save_snapshot path (serving_idx state);
          ok ()
        | None, None -> app "no snapshot path configured")
      | Wire.Digest_request ->
        (* On the mutator by design: no swap can race the refresh, so
           the digests describe exactly the published state and the
           stamped position is exact.  Served even on a stale replica —
           anti-entropy must see divergence precisely when the replica
           is unhealthy. *)
        let d = Integrity.refresh state.integrity (serving_idx state) in
        let seq, offset = Atomic.get state.digest_pos in
        Wire.Digest_reply
          {
            generation = (Atomic.get state.serving).gen;
            seq;
            offset;
            n_nodes = d.Integrity.n_nodes;
            root = d.Integrity.root;
            label_edges = d.Integrity.label_edges;
            data_ranges = d.Integrity.data_ranges;
            index_ranges = d.Integrity.index_ranges;
          }
      | Wire.Repair_fetch { ranges } ->
        let idx = serving_idx state in
        let nr = Integrity.n_ranges (Data_graph.n_nodes (Index_graph.data idx)) in
        let sections =
          List.filter_map
            (fun r -> if r >= 0 && r < nr then Some (r, Integrity.section idx r) else None)
            ranges
        in
        Wire.Repair_reply { generation = (Atomic.get state.serving).gen; sections }
      | Wire.Promote_primary -> do_promote state
      | Wire.Shutdown ->
        let r = ok () in
        Atomic.set state.stop true;
        state.wake ();
        r
      | _ -> app "read request on write path")
  with
  | Failure msg | Invalid_argument msg -> app msg
  | e -> app (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Applying the replication stream.  Mutations ride the same
   [Checkpoint.apply_mutation] path as client writes and WAL replay,
   and are logged to the replica's own WAL so a promoted replica is a
   fully durable primary.  After a reconnect the stream can replay
   bytes already applied; the WAL encoding is canonical, so each
   record's byte extent re-derives exactly and anything at or below
   the applied position is skipped.  A whole [Ev_mutations] batch is
   published with one snapshot swap. *)

(* Apply one peer-supplied mutation (replication record or repair) to
   the spare [!spare].  The primary applied it successfully, so failing
   here means divergence: count it and keep going, and drop the
   possibly half-mutated spare unless a later success publishes it.
   [true] if applied. *)
let apply_to_spare state spare m =
  match Checkpoint.apply_mutation !spare m with
  | idx' ->
    spare := idx';
    Integrity.note_mutation state.integrity m;
    true
  | exception _ ->
    state.spare <- None;
    Atomic.incr state.repl_apply_errors;
    false

let apply_repl state scratch (ev : Replication.event) =
  match ev with
  | Replication.Ev_promote -> (
    match state.replica with
    | Some r when not (Replication.is_promoted r) -> ignore (do_promote state)
    | _ -> ())
  | Replication.Ev_snapshot { index; epoch; seq } -> (
    match state.replica with
    | Some r when not (Replication.is_promoted r) -> (
      (* Decode once into the serving copy; the spare is copied from
         it by the first mutation that needs one. *)
      match Index_serial.of_string index with
      | idx' ->
        Integrity.invalidate state.integrity;
        Integrity.attach state.integrity idx';
        install state idx';
        Integrity.commit state.integrity;
        Atomic.set state.digest_pos (seq, 0);
        (match state.durability with
        | Some d -> (
          match Checkpoint.checkpoint_now d (serving_idx state) with Ok () | Error _ -> ())
        | None -> ());
        Replication.note_installed r ~epoch ~seq
      | exception _ ->
        (* A snapshot that does not parse leaves us behind; the next
           reconnect bootstraps again. *)
        Atomic.incr state.repl_apply_errors)
    | _ -> ())
  | Replication.Ev_mutations { muts; epoch = _; seq; base; offset } -> (
    match state.replica with
    | Some r when not (Replication.is_promoted r) ->
      let aseq, aoff = Replication.applied_position r in
      if seq < aseq || (seq = aseq && offset <= aoff) then ()
      else begin
        let spare = ref (catch_up state) in
        let applied = ref [] in
        let pos = ref base in
        List.iter
          (fun m ->
            Buffer.clear scratch;
            Wal.encode_mutation scratch m;
            let rec_end = !pos + Buffer.length scratch in
            (if seq > aseq || rec_end > aoff then begin
               let nth = 1 + Atomic.fetch_and_add state.repl_records_seen 1 in
               if state.repl_drop_nth > 0 && nth = state.repl_drop_nth then
                 (* Divergence injection (tests): the record is skipped
                    but the applied position still advances past it, so
                    replication itself never notices. *)
                 ()
               else if apply_to_spare state spare m then begin
                 applied := m :: !applied;
                 match state.durability with
                 | Some d when not (Checkpoint.read_only d) -> (
                   try Checkpoint.log_mutation d m
                   with e -> Checkpoint.note_wal_failure d (Printexc.to_string e))
                 | _ -> ()
               end
             end);
            pos := rec_end)
          muts;
        (* [lag] is newest-first, which is exactly what [applied]
           accumulated to. *)
        if !applied <> [] then publish state !spare !applied;
        (* The position is stamped in the primary's WAL coordinates —
           the same clock the primary stamps its own digests with. *)
        Atomic.set state.digest_pos (seq, offset);
        Replication.note_applied r ~seq ~offset ~n:(List.length !applied);
        Option.iter
          (fun d -> Checkpoint.maybe_checkpoint d (serving_idx state))
          state.durability
      end
    | _ -> ())

(* Anti-entropy repair, on the mutator: transform the named ranges'
   adjacency rows into the primary's ([sections]), through the same
   apply/swap path as every other mutation.  Readers only ever see the
   pre-repair or post-repair snapshot, so no acked answer is built from
   half-repaired state.  A successful repair is made durable with an
   immediate checkpoint: repairs bypass the WAL (they are corrections,
   not stream records), so only a fresh checkpoint prevents a restart
   from resurrecting the divergence. *)
let apply_repair state sections =
  let spare = ref (catch_up state) in
  let applied = ref [] and repaired = ref 0 in
  List.iter
    (fun (range, theirs) ->
      let muts = Integrity.section_diff (Index_graph.data !spare) ~range ~theirs in
      if muts <> [] then begin
        incr repaired;
        List.iter (fun m -> if apply_to_spare state spare m then applied := m :: !applied) muts
      end)
    sections;
  if !applied <> [] then begin
    ignore (Atomic.fetch_and_add state.ranges_repaired !repaired);
    publish state !spare !applied;
    match state.durability with
    | Some d -> (
      match Checkpoint.checkpoint_now d (serving_idx state) with Ok () | Error _ -> ())
    | None -> ()
  end

let mutator_loop state () =
  let scratch = Buffer.create 256 in
  let rec go () =
    match Bqueue.pop state.writeq with
    | None -> ()
    | Some (Wrepl ev) ->
      apply_repl state scratch ev;
      go ()
    | Some (Wrun f) ->
      f ();
      go ()
    | Some (Wreq p) ->
      (if not p.conn.closed then
         let resp = if expired state p then deadline_reply state else apply_write state p in
         send_response p.conn ~id:p.id resp;
         Atomic.incr state.served);
      Atomic.decr state.in_flight;
      Option.iter (fun d -> Checkpoint.maybe_checkpoint d (serving_idx state)) state.durability;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The integrity domain: background scrubbing of at-rest state and, on
   replicas, anti-entropy digest comparison against the primary.  All
   index access goes through [on_mutator] jobs; this domain only does
   file I/O, networking, and bookkeeping, so it needs no reader slot. *)

(* Run [f] on the mutator, between two writes, and wait for its result
   on a one-slot reply queue.  [None] once shutdown has begun or if [f]
   raised.  An admitted job always runs: [run] closes the write queue
   only after joining this domain, and the mutator drains every queued
   job before it exits. *)
let on_mutator state f =
  if Atomic.get state.stop then None
  else begin
    let reply = Bqueue.create 1 in
    Bqueue.push state.writeq (Wrun (fun () -> Bqueue.push reply (try Some (f ()) with _ -> None)));
    Option.join (Bqueue.pop reply)
  end

let scrub_pass state d =
  let dir = Checkpoint.dir d in
  let report = Scrub.scan ~max_bytes_per_s:state.cfg.scrub_max_bytes_per_s ~dir () in
  Atomic.incr state.scrub_passes;
  if report.Scrub.corrupt <> [] then begin
    ignore (Atomic.fetch_and_add state.scrub_corruptions (List.length report.Scrub.corrupt));
    (* The corrupt files may be the newest checkpoint or a sealed WAL
       segment the recovery chain still needs: re-checkpoint from the
       live (known-good) index first, and only quarantine once a fresh
       generation is durable.  On checkpoint failure the evidence
       stays in place and the next pass retries. *)
    if on_mutator state (fun () -> Checkpoint.checkpoint_now d (serving_idx state)) = Some (Ok ())
    then
      ignore (Scrub.quarantine ~dir (List.map (fun c -> c.Scrub.file) report.Scrub.corrupt))
  end

let anti_entropy_round state r suspicion =
  let rc = Replication.rconfig_of r in
  match
    Client.connect ~host:rc.Replication.primary_host ~timeout_s:5.0
      ~port:rc.Replication.primary_port ()
  with
  | exception _ -> ()
  | c ->
    Fun.protect ~finally:(fun () -> try Client.close c with _ -> ()) @@ fun () ->
    Atomic.incr state.anti_entropy_rounds;
    (match Client.call c Wire.Digest_request with
    | Wire.Digest_reply
        { generation = _; seq = pseq; offset = poff; n_nodes; root; label_edges; data_ranges; index_ranges }
      -> (
      (* The digest of the published state, stamped with the write-
         stream position it reflects. *)
      match
        on_mutator state (fun () ->
            (Integrity.refresh state.integrity (serving_idx state), Atomic.get state.digest_pos))
      with
      | None -> ()
      | Some (mine, (seq, off)) ->
        if pseq < 0 || seq < 0 || pseq <> seq || poff <> off then
          (* positions differ: ordinary replication lag, not
             divergence — digests are only comparable at equal
             write-stream positions *)
          ()
        else if n_nodes = mine.Integrity.n_nodes && root = mine.Integrity.root then
          suspicion := 0
        else begin
          (* Same position, different content.  One observation can
             still be an in-flight race; only a persistent mismatch
             counts as divergence. *)
          incr suspicion;
          if !suspicion >= 3 then begin
            suspicion := 0;
            Atomic.incr state.replica_divergences;
            let theirs =
              { Integrity.n_nodes; data_ranges; index_ranges; label_edges; root }
            in
            let dranges =
              if n_nodes <> mine.Integrity.n_nodes then []
              else Integrity.diff_data_ranges theirs mine
            in
            match dranges with
            | [] ->
              (* Node counts differ, or the data layer agrees and the
                 index layer itself has drifted (order-dependent D(k)
                 refinement).  Range repair cannot reconcile either —
                 bootstrap a bit-identical copy from the primary. *)
              Atomic.incr state.resyncs;
              Replication.force_resync r
            | dranges ->
              let dranges = List.filteri (fun i _ -> i < 16) dranges in
              (match Client.call c (Wire.Repair_fetch { ranges = dranges }) with
              | Wire.Repair_reply { sections; _ } ->
                ignore
                  (on_mutator state (fun () ->
                       try apply_repair state sections
                       with _ -> Atomic.incr state.repl_apply_errors))
              | _ -> ())
          end
        end)
    | _ -> ())

let integrity_loop state () =
  let cfg = state.cfg in
  let t0 = Unix.gettimeofday () in
  let next_scrub = ref (t0 +. cfg.scrub_interval_s) in
  let next_ae = ref (t0 +. cfg.anti_entropy_interval_s) in
  let suspicion = ref 0 in
  while not (Atomic.get state.stop) do
    Unix.sleepf 0.02;
    let t = Unix.gettimeofday () in
    (match state.durability with
    | Some d when cfg.scrub_interval_s > 0.0 && t >= !next_scrub ->
      next_scrub := Unix.gettimeofday () +. cfg.scrub_interval_s;
      (try scrub_pass state d with _ -> ())
    | _ -> ());
    match state.replica with
    | Some r
      when cfg.anti_entropy_interval_s > 0.0 && t >= !next_ae
           && not (Replication.is_promoted r) ->
      next_ae := Unix.gettimeofday () +. cfg.anti_entropy_interval_s;
      (try anti_entropy_round state r suspicion with _ -> ())
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Main loop: accept, buffered reads, in-place frame extraction,
   inline reads, routing. *)

let be32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* A peer (client or replica) presenting a higher epoch is proof that
   a newer primary was elected: remember it, and if we believed we
   were primary, fence ourselves. *)
let observe_epoch state e =
  if e > Atomic.get state.max_seen then Atomic.set state.max_seen e;
  if e > Atomic.get state.epoch && Atomic.get state.is_primary then
    Atomic.set state.fenced true

(* Route one decoded request.  Single-shot reads (Ping, Query,
   Query_path, Stats) are answered inline by the event-loop domain
   against the lock-free snapshot: they are cheap, and skipping the
   queue handoff removes two cross-domain wakeups from the common
   path.  Their replies are buffered on the connection and flushed
   once per frame batch.  Batch queries (arbitrarily large) go to the
   worker domains; writes go to the mutator. *)
let dispatch state ~slot ~reader conn ~id (req : Wire.request) =
  if Atomic.get state.stop then
    buffer_response conn ~id
      (Wire.Error_reply { code = `Shutting_down; message = "server shutting down" })
  else begin
    match req with
    (* Answered inline by the main domain: version negotiation must
       precede everything and never queue, and a subscribe converts
       the connection into a replication stream. *)
    | Wire.Hello { version = v; epoch = e } ->
      observe_epoch state e;
      if v <> Wire.version then
        buffer_response conn ~id
          (Wire.Error_reply
             {
               code = `Version;
               message = Printf.sprintf "server speaks protocol version %d, client sent %d" Wire.version v;
             })
      else
        buffer_response conn ~id
          (Wire.Hello_reply
             {
               version = Wire.version;
               epoch = Atomic.get state.epoch;
               role = (if Atomic.get state.is_primary then Wire.Primary else Wire.Replica);
             })
    | Wire.Rep_subscribe { replica_id; epoch = e; seq; offset } ->
      observe_epoch state e;
      if e > Atomic.get state.epoch then
        (* The subscriber outranks us: refuse — following a deposed
           primary would fork its lineage. *)
        buffer_response conn ~id (Wire.Fenced { epoch = Atomic.get state.max_seen })
      else if not (Atomic.get state.is_primary) then
        buffer_response conn ~id (not_primary_reply state)
      else (
        match Atomic.get state.hub with
        | None ->
          buffer_response conn ~id
            (Wire.Error_reply
               { code = `App; message = "replication requires a data directory on the primary" })
        | Some hub ->
          (* Hand the fd over with a clean write buffer. *)
          flush_responses conn;
          conn.detached <- true;
          Replication.attach hub ~fd:conn.fd ~replica_id ~seq ~offset)
    | Wire.Ping | Wire.Query _ | Wire.Query_path _ | Wire.Stats | Wire.Query_planned _
    | Wire.Explain _ | Wire.Has_edge _ ->
      let resp =
        if stale_read state req then
          Wire.Error_reply { code = `Stale; message = "replica outside staleness bound" }
        else
          try with_snapshot state slot (fun snap -> handle_read state snap reader req)
          with e -> Wire.Error_reply { code = `App; message = Printexc.to_string e }
      in
      buffer_response conn ~id resp;
      Atomic.incr state.served;
      Atomic.incr state.served_inline
    | _ ->
      let p = { conn; id; req; arrival = Unix.gettimeofday () } in
      Atomic.incr state.in_flight;
      let pushed =
        match req with
        | Wire.Batch_query _ -> Bqueue.try_push state.readq p
        | _ -> Bqueue.try_push state.writeq (Wreq p)
      in
      if not pushed then begin
        Atomic.decr state.in_flight;
        Atomic.incr state.shed;
        buffer_response conn ~id Wire.Overloaded
      end
  end

let run ?(on_ready = fun (_ : int) -> ()) ?(handle_signals = true) ?durability ?replica_of
    ?hub_faults ?hub_heartbeat_s ?(repl_drop_nth = 0) cfg index =
  Index_graph.prepare_serving index;
  let epoch0 =
    match durability with
    | Some d -> Replication.load_epoch ~dir:(Checkpoint.dir d)
    | None -> 0
  in
  let epoch = Atomic.make epoch0 in
  let max_seen = Atomic.make epoch0 in
  let mk_hub d = Replication.create_hub ?faults_for:hub_faults ?heartbeat_s:hub_heartbeat_s ~epoch d in
  let replica = Option.map (fun rc -> Replication.create_replica rc ~epoch ~max_seen) replica_of in
  let n_workers = max 1 cfg.workers in
  let state =
    {
      cfg;
      serving = Atomic.make { idx = index; gen = 0 };
      slots = Array.init (n_workers + 1) (fun _ -> Atomic.make (-1));
      spare = None;
      lag = [];
      swaps = Atomic.make 0;
      spare_copies = Atomic.make 0;
      wake = (fun () -> ());
      evloop_backend = "";
      durability;
      readq = Bqueue.create cfg.queue_depth;
      writeq = Bqueue.create cfg.queue_depth;
      in_flight = Atomic.make 0;
      stop = Atomic.make false;
      served = Atomic.make 0;
      served_inline = Atomic.make 0;
      shed = Atomic.make 0;
      proto_errors = Atomic.make 0;
      deadline_expired = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      evicted_slow_clients = Atomic.make 0;
      rejected_at_admission = Atomic.make 0;
      epoch;
      max_seen;
      is_primary = Atomic.make (replica = None);
      fenced = Atomic.make false;
      hub =
        Atomic.make
          (match (durability, replica) with Some d, None -> Some (mk_hub d) | _ -> None);
      mk_hub;
      replica;
      repl_apply_errors = Atomic.make 0;
      integrity = Integrity.create ();
      digest_pos =
        Atomic.make
          (match (durability, replica) with
          | Some d, None -> Checkpoint.wal_position d
          | _ -> (-1, 0));
      repl_records_seen = Atomic.make 0;
      repl_drop_nth;
      scrub_passes = Atomic.make 0;
      scrub_corruptions = Atomic.make 0;
      ranges_repaired = Atomic.make 0;
      replica_divergences = Atomic.make 0;
      resyncs = Atomic.make 0;
      anti_entropy_rounds = Atomic.make 0;
      vcache_mu = Mutex.create ();
      vcaches = [];
      vcache_retired = (0, 0, 0);
      stats_mu = Mutex.create ();
      stats_srcs = [];
      planned = Atomic.make 0;
      planned_index_scans = Atomic.make 0;
      planned_raw_scans = Atomic.make 0;
      explains = Atomic.make 0;
      plan_fallbacks = Atomic.make 0;
    }
  in
  Integrity.attach state.integrity index;
  let ev =
    match Evloop.create () with
    | Ok ev -> ev
    | Error msg -> failwith ("Server: event loop: " ^ msg)
  in
  state.evloop_backend <- Evloop.backend_name ev;
  (* Self-pipe: lets the mutator (Shutdown request) and signal
     handlers wake a loop that is parked in the kernel with no tick. *)
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake () =
    try ignore (Unix.write_substring pipe_w "x" 0 1)
    with Unix.Unix_error _ -> ()
  in
  state.wake <- wake;
  Evloop.add ev pipe_r Evloop.rd;
  if Sys.os_type = "Unix" then ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  if handle_signals then
    List.iter
      (fun s ->
        Sys.set_signal s
          (Sys.Signal_handle
             (fun _ ->
               Atomic.set state.stop true;
               wake ())))
      [ Sys.sigterm; Sys.sigint ];
  let listen_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listen_fd SO_REUSEADDR true;
  Unix.bind listen_fd (ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd 64;
  Evloop.add ev listen_fd Evloop.rd;
  let port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let workers =
    Array.init n_workers (fun i -> Domain.spawn (worker_loop state state.slots.(i + 1)))
  in
  let mutator = Domain.spawn (mutator_loop state) in
  let integrity_domain =
    if
      (cfg.scrub_interval_s > 0.0 && Option.is_some durability)
      || (cfg.anti_entropy_interval_s > 0.0 && Option.is_some replica)
    then Some (Domain.spawn (integrity_loop state))
    else None
  in
  (* The tailer feeds the mutator through a blocking push: replication
     events are never shed, they apply FIFO with client writes. *)
  Option.iter
    (fun r -> Replication.start_replica r ~push:(fun ev -> Bqueue.push state.writeq (Wrepl ev)))
    replica;
  on_ready port;
  let main_slot = state.slots.(0) in
  let main_reader = new_reader () in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let close_conn conn =
    Mutex.lock conn.wmu;
    conn.closed <- true;
    Mutex.unlock conn.wmu;
    Evloop.remove ev conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns conn.fd
  in
  (* Admission refusal: one best-effort Overloaded frame (id 0 — the
     peer has not spoken yet), then close.  The write is fire-and-
     forget; a full socket buffer on a connection we are rejecting is
     not worth waiting on. *)
  let overloaded_frame =
    let b = Obuf.create 16 in
    Wire.encode_response b ~id:0 Wire.Overloaded;
    Bytes.sub (Obuf.base b) 0 (Obuf.length b)
  in
  let accept_new () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()
    | fd, _addr ->
      if cfg.max_conns > 0 && Hashtbl.length conns >= cfg.max_conns then begin
        Atomic.incr state.rejected_at_admission;
        (try ignore (Unix.write fd overloaded_frame 0 (Bytes.length overloaded_frame))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
        Evloop.add ev fd Evloop.rd;
        Hashtbl.replace conns fd
          {
            fd;
            rbuf = Bytes.create 4096;
            rlen = 0;
            wmu = Mutex.create ();
            wbuf = Obuf.create 1024;
            closed = false;
            detached = false;
            last_active = Unix.gettimeofday ();
            frame_start = 0.0;
          }
      end
  in
  (* Extract every complete frame from the connection buffer — decoded
     in place, no per-frame payload copy — then compact what remains
     to the front and flush the batched replies with one write. *)
  let process_frames conn =
    let rec go off =
      if conn.closed || conn.detached || conn.rlen - off < 4 then off
      else begin
        let len = be32 conn.rbuf off in
        if len > cfg.max_frame then begin
          buffer_response conn ~id:0
            (Wire.Error_reply
               {
                 code = `Protocol;
                 message = Printf.sprintf "frame of %d bytes exceeds limit %d" len cfg.max_frame;
               });
          flush_responses conn;
          Atomic.incr state.proto_errors;
          close_conn conn;
          off
        end
        else if conn.rlen - off >= 4 + len then begin
          (* The transient string view is only read between here and
             the end of decoding; decoded requests copy out what they
             retain. *)
          (match
             Wire.decode_request_at (Bytes.unsafe_to_string conn.rbuf) ~pos:(off + 4) ~len
           with
          | Error msg ->
            Atomic.incr state.proto_errors;
            buffer_response conn ~id:0 (Wire.Error_reply { code = `Protocol; message = msg })
          | Ok { id; msg = req } -> dispatch state ~slot:main_slot ~reader:main_reader conn ~id req);
          go (off + 4 + len)
        end
        else off
      end
    in
    let consumed = go 0 in
    if (not conn.closed) && not conn.detached then begin
      if consumed > 0 then begin
        Bytes.blit conn.rbuf consumed conn.rbuf 0 (conn.rlen - consumed);
        conn.rlen <- conn.rlen - consumed
      end;
      flush_responses conn
    end
  in
  let chunk = Bytes.create 65536 in
  let service_read conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn conn
    | 0 -> close_conn conn
    | n ->
      conn.last_active <- Unix.gettimeofday ();
      let need = conn.rlen + n in
      if Bytes.length conn.rbuf < need then begin
        let bigger = Bytes.create (max need (2 * Bytes.length conn.rbuf)) in
        Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
        conn.rbuf <- bigger
      end;
      Bytes.blit chunk 0 conn.rbuf conn.rlen n;
      conn.rlen <- need;
      process_frames conn;
      (* Read-progress accounting: an empty buffer means no frame is
         pending; otherwise the deadline clock starts at the first
         byte of the incomplete frame and is NOT refreshed by further
         trickle — that is exactly the slow-loris shape. *)
      if conn.rlen = 0 then conn.frame_start <- 0.0
      else if conn.frame_start = 0.0 then conn.frame_start <- conn.last_active;
      (* A subscribe detached this connection: the hub's sender owns
         the fd now; forget it without closing. *)
      if conn.detached then begin
        Evloop.remove ev conn.fd;
        Hashtbl.remove conns conn.fd
      end
  in
  let sweep_idle () =
    if cfg.idle_timeout_s > 0.0 || cfg.read_progress_deadline_s > 0.0 then begin
      let now = Unix.gettimeofday () in
      let idle = ref [] and loris = ref [] in
      Hashtbl.iter
        (fun _ c ->
          if
            cfg.read_progress_deadline_s > 0.0 && c.frame_start > 0.0
            && now -. c.frame_start > cfg.read_progress_deadline_s
          then loris := c :: !loris
          else if cfg.idle_timeout_s > 0.0 && now -. c.last_active > cfg.idle_timeout_s then
            idle := c :: !idle)
        conns;
      List.iter
        (fun c ->
          Atomic.incr state.evicted_slow_clients;
          close_conn c)
        !loris;
      List.iter close_conn !idle
    end
  in
  (* No fixed tick: park until readiness, or until the earliest
     idle-connection or read-progress deadline if either sweep is on. *)
  let next_timeout_ms () =
    if
      (cfg.idle_timeout_s <= 0.0 && cfg.read_progress_deadline_s <= 0.0)
      || Hashtbl.length conns = 0
    then -1
    else begin
      let next =
        Hashtbl.fold
          (fun _ c acc ->
            let acc =
              if cfg.idle_timeout_s > 0.0 then
                Float.min acc (c.last_active +. cfg.idle_timeout_s)
              else acc
            in
            if cfg.read_progress_deadline_s > 0.0 && c.frame_start > 0.0 then
              Float.min acc (c.frame_start +. cfg.read_progress_deadline_s)
            else acc)
          conns infinity
      in
      if next = infinity then -1
      else begin
        let ms = (next -. Unix.gettimeofday ()) *. 1000.0 in
        if ms <= 0.0 then 0 else int_of_float ms + 20
      end
    end
  in
  let drain_pipe () =
    let scratch = Bytes.create 64 in
    let rec go () =
      match Unix.read pipe_r scratch 0 64 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()
  in
  while not (Atomic.get state.stop) do
    ignore
      (Evloop.wait ev ~timeout_ms:(next_timeout_ms ()) (fun fd _mask ->
           if fd = pipe_r then drain_pipe ()
           else if fd = listen_fd then accept_new ()
           else
             match Hashtbl.find_opt conns fd with
             | Some conn -> service_read conn
             | None -> ()));
    sweep_idle ()
  done;
  Evloop.remove ev listen_fd;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* Drain by closing: the producers go first — the tailer, then the
     integrity domain, whose [on_mutator] jobs must still be admitted —
     then both queues close, and each consumer answers everything
     already admitted before its [pop] returns [None]. *)
  Option.iter Replication.stop_replica state.replica;
  Option.iter Domain.join integrity_domain;
  Bqueue.close state.readq;
  Bqueue.close state.writeq;
  Array.iter Domain.join workers;
  Domain.join mutator;
  Option.iter Replication.stop_hub (Atomic.get state.hub);
  (* Sockets go first: a failing final snapshot (disk full, say) must
     not leave descriptors open or the drain half-finished — it turns
     into an [Error _] the caller can exit nonzero on. *)
  Hashtbl.iter
    (fun _ c ->
      Mutex.lock c.wmu;
      c.closed <- true;
      Mutex.unlock c.wmu;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  (* The mutator has been joined: nothing else touches the index. *)
  let final_durability =
    match state.durability with
    | None -> Ok ()
    | Some d -> Checkpoint.close d (serving_idx state)
  in
  let final_snapshot =
    match cfg.snapshot_path with
    | None -> Ok ()
    | Some path -> (
      try
        save_snapshot path (serving_idx state);
        Ok ()
      with e -> Error (Printf.sprintf "final snapshot %s: %s" path (Printexc.to_string e)))
  in
  match (final_durability, final_snapshot) with
  | Ok (), Ok () -> Ok ()
  | Error a, Error b -> Error (a ^ "; " ^ b)
  | Error e, _ | _, Error e -> Error e
