open Dkindex_graph
open Dkindex_core
module Cost = Dkindex_pathexpr.Cost
module Plan = Dkindex_planner.Plan
module Planner = Dkindex_planner.Planner

type config = {
  host : string;
  port : int;
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
(* Connections.  The event loop owns each connection: it reads and
   extracts frames, encodes every reply into [wbuf] (no per-reply
   [Buffer.to_bytes]), flushes it once per frame batch, and is the
   only closer of the file descriptor. *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
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

(* The job list is how work reaches the index.  It carries client
   writes, replication-stream events, and integrity-thread jobs ([Run],
   see [on_loop]); the event loop drains it after each frame batch and
   applies them in FIFO order, so replica reads observe mutations in
   primary order and a digest always describes exactly the applied
   state. *)
type job = Write of pending | Repl of Replication.event | Run of (unit -> unit)

(* The serving index and the reader state built over it: the
   validation cache, the planners of planned reads (one through the
   cache, one without it, so Query_planned honors [no_cache]) and the
   generation-gated Index_stats source.  Writes mutate [idx] in place;
   a mutation that returns a new index object (a subgraph graft, a
   demotion rebuild) or a snapshot install replaces the whole record. *)
type reader = {
  idx : Index_graph.t;
  cache : Validation_cache.t Lazy.t;
  planner : Planner.t Lazy.t;
  planner_nc : Planner.t Lazy.t;
  stats_src : Index_stats.source Lazy.t;
}

let reader_of idx =
  (* Reads see every adjacency in fold order, so a query's answer and
     visit counts do not depend on when the overflow layers were last
     folded, nor on the order concurrent writes arrived in. *)
  Index_graph.keep_sorted idx;
  let cache = lazy (Validation_cache.create idx) in
  let planner cache =
    lazy
      (let pl = Planner.create (Index_graph.data idx) in
       Planner.register pl ~name:"index" ?cache:(Option.map Lazy.force cache) idx;
       pl)
  in
  {
    idx;
    cache;
    planner = planner (Some cache);
    planner_nc = planner None;
    stats_src = lazy (Index_stats.source idx);
  }

(* Launch stages in [Stats] order; [run] times [Prepare] itself. *)
type stage = Datagen | Index_build | Recover | Checkpoint | Prepare

let stage_names = [| "datagen"; "index_build"; "recover"; "checkpoint"; "prepare" |]
let stage_slot = function Datagen -> 0 | Index_build -> 1 | Recover -> 2 | Checkpoint -> 3 | Prepare -> 4

(* [gc_at_ready]: minor and major collections and words allocated by
   the process when [run] is about to report ready. *)
type launch = {
  launched_at : float;
  stage_ms : float array;
  mutable gc_at_ready : int * int * float;
}

let launch () =
  { launched_at = Unix.gettimeofday (); stage_ms = Array.make 5 0.0; gc_at_ready = (0, 0, 0.0) }

(* [Gc.quick_stat]'s [minor_words] moves only at collections; the
   [Gc.minor_words] primitive reads the allocation pointer. *)
let note_ready launch =
  let s = Gc.quick_stat () in
  launch.gc_at_ready <-
    ( s.Gc.minor_collections,
      s.Gc.major_collections,
      Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words )

let stage launch st f =
  let t0 = Unix.gettimeofday () and i = stage_slot st in
  let result = f () in
  launch.stage_ms.(i) <- launch.stage_ms.(i) +. ((Unix.gettimeofday () -. t0) *. 1000.0);
  result

(* The event loop owns the state.  The atomics are what other threads
   touch too: [stop] (signal handlers, the integrity thread), the epochs
   (shared with the replication threads) and the integrity thread's
   counters. *)
type state = {
  cfg : config;
  mutable reader : reader;
  mutable gen : int;  (* bumped by every applied mutation and install *)
  mutable vcache_retired : int * int * int;
      (* hits, misses and evictions of the caches dropped with a
         replaced index, so the exported counters never decrease *)
  wake : unit -> unit;  (* nudges the event loop (self-pipe) *)
  durability : Checkpoint.t option;
  jobs : job Bqueue.t;
  mutable in_flight : int;  (* admitted writes not yet answered *)
  stop : bool Atomic.t;
  mutable served : int;
  mutable served_inline : int;
  mutable shed : int;
  mutable proto_errors : int;
  mutable deadline_expired : int;
  launch : launch;  (* its clock is uptime's *)
  mutable evicted_slow_clients : int;
  mutable rejected_at_admission : int;
  (* replication / failover *)
  epoch : int Atomic.t;  (* our primary epoch (a replica carries its lineage's) *)
  max_seen : int Atomic.t;  (* highest epoch observed from any peer *)
  mutable is_primary : bool;
  mutable fenced : bool;  (* a peer proved a newer primary exists *)
  mutable hub : Replication.hub option;
  mk_hub : Checkpoint.t -> Replication.hub;  (* for promotion *)
  replica : Replication.replica option;
  mutable repl_apply_errors : int;
  (* integrity: digests, scrubbing, anti-entropy *)
  mutable digest_memo : (int * Integrity.digests) option;
      (* the serving index's digests and the [gen] they were computed at *)
  mutable digest_pos : int * int;
      (* write-stream position (primary WAL coordinates) the applied
         state corresponds to; (-1, 0) when it cannot be stamped.  Two
         servers' digests are comparable only at equal positions. *)
  mutable repl_records_seen : int;
  repl_drop_nth : int;
      (* test hook: silently skip the nth fresh replicated record
         (divergence injection); 0 = never *)
  read_faults : Faults.t option;  (* test hook: filters the scrubber's reads *)
  scrub_passes : int Atomic.t;
  scrub_corruptions : int Atomic.t;
  replica_divergences : int Atomic.t;  (* each one healed by one resync *)
  anti_entropy_rounds : int Atomic.t;
  mutable planned : int;
  mutable planned_index_scans : int;
  mutable planned_raw_scans : int;
  mutable explains : int;
  mutable plan_fallbacks : int;
}

let serving_idx state = state.reader.idx

(* Make [idx] the serving index.  A new object gets a fresh reader
   record; the counters of the cache it drops move into the retired
   totals. *)
let set_index state idx =
  let r = state.reader in
  if r.idx != idx then begin
    if Lazy.is_val r.cache then begin
      let c = Lazy.force r.cache in
      let h, m = Validation_cache.stats c and rh, rm, re = state.vcache_retired in
      state.vcache_retired <- (rh + h, rm + m, re + Validation_cache.evictions c)
    end;
    state.reader <- reader_of idx
  end

(* Apply one loggable mutation to the serving index.  Every rejection
   the mutation path knows (a node out of range, a missing edge, an
   unparsable subgraph, a subgraph root label that is not unique)
   raises before anything is changed, so a failed write leaves the one
   copy as it was.  Wholesale mutations return a new index object,
   which replaces the reader state. *)
let apply_mutation state m =
  set_index state (Checkpoint.apply_mutation (serving_idx state) m);
  state.gen <- state.gen + 1

(* The serving index's digests, computed from scratch at most once per
   write generation. *)
let digests state =
  match state.digest_memo with
  | Some (gen, d) when gen = state.gen -> d
  | _ ->
    let d = Integrity.compute_full (serving_idx state) in
    state.digest_memo <- Some (state.gen, d);
    d

(* ------------------------------------------------------------------ *)
(* Response writing.  Replies are encoded into the connection's [wbuf]
   and flushed from its backing bytes directly — no intermediate copy.
   Reads are buffered for a whole frame batch and flushed once
   ([flush_responses]), so a pipelined client costs one [write] per
   batch instead of one per request; write replies are flushed as each
   write is applied.  Sockets are non-blocking: [Faults.write_all]
   waits out a full send buffer and gives up on a peer stalled for
   30 s, which closes the connection. *)

let flush_responses conn =
  if (not conn.closed) && Obuf.length conn.wbuf > 0 then (
    try Faults.write_all None conn.fd (Obuf.base conn.wbuf) 0 (Obuf.length conn.wbuf)
    with Unix.Unix_error _ -> conn.closed <- true);
  Obuf.clear conn.wbuf

let buffer_response conn ~id resp = if not conn.closed then Wire.encode_response conn.wbuf ~id resp

(* ------------------------------------------------------------------ *)
(* Query evaluation, on the event loop *)

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

let eval_labels ?cache idx labels =
  let pool = Data_graph.pool (Index_graph.data idx) in
  let codes = List.map (Label.Pool.find_opt pool) labels in
  if labels = [] || List.exists Option.is_none codes then empty_result
  else Query_eval.eval_path ?cache idx (Array.of_list (List.map Option.get codes))

let vcache_kvs state =
  let rh, rm, re = state.vcache_retired in
  let live = state.reader.cache in
  let h, m, entries, e =
    if Lazy.is_val live then begin
      let c = Lazy.force live in
      let h, m = Validation_cache.stats c in
      (h, m, Validation_cache.entry_count c, Validation_cache.evictions c)
    end
    else (0, 0, 0, 0)
  in
  [
    ("vcache_instances", if Lazy.is_val live then "1" else "0");
    ("vcache_hits", string_of_int (rh + h));
    ("vcache_misses", string_of_int (rm + m));
    ("vcache_entries", string_of_int entries);
    ("vcache_evictions", string_of_int (re + e));
  ]

(* Index statistics are generation-gated ({!Index_stats.source}): a
   Stats request on an unchanged index returns the memoized record
   instead of sweeping every live index node. *)
let stats_kvs state =
  let st = Index_stats.get (Lazy.force state.reader.stats_src) in
  let b v = if v then "true" else "false" in
  [
    ("n_index_nodes", string_of_int st.Index_stats.n_nodes);
    ("n_index_edges", string_of_int st.n_edges);
    ("n_data_nodes", string_of_int st.n_data_nodes);
    ("compression", Printf.sprintf "%.3f" st.compression);
    ("largest_extent", string_of_int st.largest_extent);
    ("generation", string_of_int state.gen);
    ("served", string_of_int (state.served));
    ("served_inline", string_of_int (state.served_inline));
    ("shed", string_of_int (state.shed));
    ("protocol_errors", string_of_int (state.proto_errors));
    ("deadline_expired", string_of_int (state.deadline_expired));
    ("write_queue_depth", string_of_int (Bqueue.length state.jobs));
    ("queue_capacity", string_of_int state.cfg.queue_depth);
    ("in_flight", string_of_int state.in_flight);
    ("role", if state.is_primary then "primary" else "replica");
    ("epoch", string_of_int (Atomic.get state.epoch));
    ("max_seen_epoch", string_of_int (Atomic.get state.max_seen));
    ("fenced", b (state.fenced));
    ("repl_apply_errors", string_of_int (state.repl_apply_errors));
    ("durability", match state.durability with Some _ -> "wal+checkpoint" | None -> "none");
    ("uptime_s", Printf.sprintf "%.3f" (Unix.gettimeofday () -. state.launch.launched_at));
    ("evicted_slow_clients", string_of_int (state.evicted_slow_clients));
    ("rejected_at_admission", string_of_int (state.rejected_at_admission));
    ("planned_queries", string_of_int (state.planned));
    ("planned_index_scans", string_of_int (state.planned_index_scans));
    ("planned_raw_scans", string_of_int (state.planned_raw_scans));
    ("explain_queries", string_of_int (state.explains));
    ("plan_fallbacks", string_of_int (state.plan_fallbacks));
    ("scrub_passes", string_of_int (Atomic.get state.scrub_passes));
    ("scrub_corruptions_found", string_of_int (Atomic.get state.scrub_corruptions));
    ("replica_divergences", string_of_int (Atomic.get state.replica_divergences));
    ("anti_entropy_rounds", string_of_int (Atomic.get state.anti_entropy_rounds));
  ]
  @ List.mapi
      (fun i name -> ("launch_" ^ name ^ "_ms", Printf.sprintf "%.3f" state.launch.stage_ms.(i)))
      (Array.to_list stage_names)
  @ (let minor, major, words = state.launch.gc_at_ready in
     [
       ("launch_minor_gcs", string_of_int minor);
       ("launch_major_gcs", string_of_int major);
       ("launch_alloc_words", Printf.sprintf "%.0f" words);
     ])
  @ vcache_kvs state
  @ (match state.durability with Some d -> Checkpoint.stats d | None -> [])
  @ (match state.hub with Some h -> Replication.hub_stats h | None -> [])
  @ (match state.replica with Some r -> Replication.replica_stats r | None -> [])

(* How stale is the data a read is answered from?  0 on a primary (and
   on a promoted replica); on a replica, the milliseconds since the
   primary was last heard from — the same clock the staleness-bound
   refusal runs against.  A replica that has installed no snapshot
   answers no reads (they are refused [`Stale]), so the [None] arm is
   unreachable on the read path; u32-max keeps it honest anyway. *)
let read_age_ms state =
  match state.replica with
  | None -> 0
  | Some r -> (
    match Replication.contact_age_s r with
    | Some a -> int_of_float (a *. 1000.0)
    | None -> 0xffffffff)

let handle_read state req : Wire.response =
  let { idx; cache; planner; planner_nc; _ } = state.reader in
  let cache flags = if flags.Wire.no_cache then None else Some (Lazy.force cache) in
  let wire_result r = wire_result ~gen:state.gen ~age_ms:(read_age_ms state) r in
  match req with
  | Wire.Ping -> Wire.Pong
  | Wire.Stats -> Wire.Stats_reply (stats_kvs state)
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
        generation = state.gen;
        age_ms = read_age_ms state;
      }
  | Wire.Query_planned { flags; expr } ->
    let pl = Lazy.force (if flags.Wire.no_cache then planner_nc else planner) in
    let fb0 = Planner.fallbacks pl in
    let plan, r = Planner.eval_planned pl expr in
    state.planned <- state.planned + 1;
    (match plan.Plan.access with
    | Plan.Raw -> state.planned_raw_scans <- state.planned_raw_scans + 1
    | Plan.Scan _ -> state.planned_index_scans <- state.planned_index_scans + 1);
    let fell = Planner.fallbacks pl - fb0 in
    state.plan_fallbacks <- state.plan_fallbacks + fell;
    Wire.Planned_result { plan = Plan.describe plan; result = wire_result r }
  | Wire.Explain { expr } ->
    let pl = Lazy.force planner in
    state.explains <- state.explains + 1;
    Wire.Explain_reply (Planner.explain pl expr)
  | _ -> Wire.Error_reply { code = `Protocol; message = "write request on read path" }

(* Ping and Stats stay answerable on a stale replica (they are how an
   operator finds out it is stale); queries are refused. *)
let stale_read state req =
  match state.replica with
  | Some r -> (
    match req with
    | Wire.Ping | Wire.Stats -> false
    | _ -> Replication.stale r)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Writes: applied in FIFO order to the serving index, on the loop. *)

(* The [--snapshot] file, the compact body, durable before it is
   acknowledged: temp file, fsync, rename, fsync of the directory. *)
let save_snapshot path idx =
  let { Index_serial.bytes; off; len } = Index_serial.encode_compact idx in
  Checkpoint.write_atomic (Filename.dirname path) (Filename.basename path) bytes off len

let not_primary_reply state : Wire.response =
  match state.replica with
  | Some r ->
    let rc = Replication.rconfig_of r in
    Wire.Not_primary { host = rc.Replication.primary_host; port = rc.Replication.primary_port }
  | None -> Wire.Not_primary { host = state.cfg.host; port = state.cfg.port }

(* Promotion (operator request or failover watchdog), run on the
   loop.  Epoch = 1 + the highest epoch observed anywhere,
   persisted before the role flips so a restart cannot resurrect the
   old epoch — if it cannot be persisted, the promotion is refused and
   the replica keeps its role and epoch; then the replica tailer is
   retired and (with a data directory) a hub is opened for new
   subscribers. *)
let do_promote state : Wire.response =
  let e = max (Atomic.get state.epoch) (Atomic.get state.max_seen) + 1 in
  let persist d = Replication.store_epoch ~dir:(Checkpoint.dir d) e in
  if state.is_primary then
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
      (match (state.durability, state.hub) with
      | Some d, None -> state.hub <- Some (state.mk_hub d)
      | _ -> ());
      state.fenced <- false;
      state.is_primary <- true;
      Wire.Ok_reply { generation = state.gen; epoch = e }

let apply_write state (p : pending) : Wire.response =
  let ok () =
    Wire.Ok_reply { generation = state.gen; epoch = Atomic.get state.epoch }
  in
  let app msg : Wire.response = Error_reply { code = `App; message = msg } in
  try
    (* A loggable mutation goes through {!Checkpoint.apply_mutation},
       the code path recovery replays, so the two cannot diverge. *)
    match Wire.mutation p.req with
    | Some m -> (
      if not state.is_primary then not_primary_reply state
      else if state.fenced then Wire.Fenced { epoch = Atomic.get state.max_seen }
      else
        match state.durability with
        | Some d when Checkpoint.read_only d -> Wire.Read_only
        | durability -> (
          apply_mutation state m;
          (* Log after applying, before acknowledging: the WAL holds
             only mutations that succeeded, and nothing is acknowledged
             (or read, since reads wait for the loop too) until it is
             logged.  A WAL failure degrades the server to read-only —
             the application stands (it can be at most this one
             unacknowledged mutation ahead of the durable state) and no
             further writes are accepted. *)
          match durability with
          | None -> ok ()
          | Some d -> (
            match Checkpoint.log_mutation d m with
            | () ->
              state.digest_pos <- Checkpoint.wal_position d;
              ok ()
            | exception e ->
              Checkpoint.note_wal_failure d (Printexc.to_string e);
              (* Applied but not logged: the state is ahead of any WAL
                 position. *)
              state.digest_pos <- (-1, 0);
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
        (* A job by design: it runs between writes, so the digests
           describe exactly the applied state and the stamped position
           is exact.  Served even on a stale replica — anti-entropy must
           see divergence precisely when the replica is unhealthy. *)
        let d = digests state in
        let seq, offset = state.digest_pos in
        Wire.Digest_reply
          {
            generation = state.gen;
            seq;
            offset;
            n_nodes = d.Integrity.n_nodes;
            root = d.Integrity.root;
          }
      | Wire.Promote_primary -> do_promote state
      | Wire.Shutdown ->
        (* The loop stops after this drain. *)
        Atomic.set state.stop true;
        ok ()
      | _ -> app "read request on write path")
  with
  | Failure msg | Invalid_argument msg -> app msg
  | e -> app (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Applying the replication stream.  Mutations ride the same
   [Checkpoint.apply_mutation] path as client writes and WAL replay,
   and are logged to the replica's own WAL so a promoted replica is a
   fully durable primary.  After a reconnect the stream can replay
   bytes already applied; each record comes with its end offset in the
   primary's WAL, and anything at or below the applied position is
   skipped. *)

let apply_repl state (ev : Replication.event) =
  match ev with
  | Replication.Ev_promote -> (
    match state.replica with
    | Some r when not (Replication.is_promoted r) -> ignore (do_promote state)
    | _ -> ())
  | Replication.Ev_snapshot { checkpoint; epoch; seq } -> (
    match state.replica with
    | Some r when not (Replication.is_promoted r) -> (
      (* Check and decode once into the serving index, then keep the
         checked file itself as the next checkpoint. *)
      let t0 = Unix.gettimeofday () in
      match Result.map Index_serial.decode (Checkpoint.body checkpoint) with
      | Ok idx' ->
        set_index state idx';
        state.gen <- state.gen + 1;
        state.digest_pos <- (seq, 0);
        Option.iter
          (fun d -> match Checkpoint.install d checkpoint with Ok () | Error _ -> ())
          state.durability;
        Replication.note_installed r ~epoch ~seq ~ms:((Unix.gettimeofday () -. t0) *. 1000.0)
      | Error _ | (exception _) ->
        (* A snapshot that fails its check or does not decode leaves
           us behind: bootstrap again. *)
        state.repl_apply_errors <- state.repl_apply_errors + 1;
        Replication.force_resync r)
    | _ -> ())
  | Replication.Ev_mutations { records; epoch = _; seq; offset } -> (
    match state.replica with
    | Some r when not (Replication.is_promoted r) ->
      let aseq, aoff = Replication.applied_position r in
      if seq < aseq || (seq = aseq && offset <= aoff) then ()
      else begin
        let applied = ref 0 in
        List.iter
          (fun (m, rec_end) ->
            if seq > aseq || rec_end > aoff then begin
              state.repl_records_seen <- state.repl_records_seen + 1;
              if state.repl_drop_nth > 0 && state.repl_records_seen = state.repl_drop_nth then
                (* Divergence injection (tests): the record is skipped
                   but the applied position still advances past it, so
                   replication itself never notices. *)
                ()
              else
                (* The primary applied it successfully, so failing here
                   means divergence: count it and keep going. *)
                match apply_mutation state m with
                | exception _ -> state.repl_apply_errors <- state.repl_apply_errors + 1
                | () -> (
                  incr applied;
                  match state.durability with
                  | Some d when not (Checkpoint.read_only d) -> (
                    try Checkpoint.log_mutation d m
                    with e -> Checkpoint.note_wal_failure d (Printexc.to_string e))
                  | _ -> ())
            end)
          records;
        (* The position is stamped in the primary's WAL coordinates —
           the same clock the primary stamps its own digests with. *)
        state.digest_pos <- (seq, offset);
        Replication.note_applied r ~seq ~offset ~n:!applied;
        Option.iter
          (fun d -> Checkpoint.maybe_checkpoint d (serving_idx state))
          state.durability
      end
    | _ -> ())

(* A write that waited in the job list past [deadline_s] is answered
   [`Deadline] instead of being applied. *)
let expired state p =
  state.cfg.deadline_s > 0.0 && Unix.gettimeofday () -. p.arrival > state.cfg.deadline_s

let deadline_reply state =
  state.deadline_expired <- state.deadline_expired + 1;
  Wire.Error_reply { code = `Deadline; message = "deadline exceeded" }

(* Run the jobs queued when the drain starts, in FIFO order: a thread
   pushing more wakes the loop again, so reads get their turn between
   drains. *)
let drain_jobs state =
  for _ = 1 to Bqueue.length state.jobs do
    match Bqueue.try_pop state.jobs with
    | None -> ()
    | Some (Repl ev) -> apply_repl state ev
    | Some (Run f) -> f ()
    | Some (Write p) ->
      if not p.conn.closed then begin
        let resp = if expired state p then deadline_reply state else apply_write state p in
        buffer_response p.conn ~id:p.id resp;
        flush_responses p.conn;
        state.served <- state.served + 1
      end;
      state.in_flight <- state.in_flight - 1;
      Option.iter (fun d -> Checkpoint.maybe_checkpoint d (serving_idx state)) state.durability
  done

(* ------------------------------------------------------------------ *)
(* The integrity thread: background scrubbing of at-rest state and, on
   replicas, anti-entropy digest comparison against the primary.  All
   index access goes through [on_loop] jobs; this thread only does
   file I/O, networking, and bookkeeping. *)

(* Run [f] on the loop, between two writes, and wait for its result on
   a one-slot reply queue.  [None] once shutdown has begun, when the
   job list is full, or if [f] raised.  An admitted job always runs:
   at shutdown the loop closes the job list and drains it before it
   joins this thread. *)
let on_loop state f =
  let reply = Bqueue.create 1 in
  let job = Run (fun () -> Bqueue.push reply (try Some (f ()) with _ -> None)) in
  if Atomic.get state.stop || not (Bqueue.try_push state.jobs job) then None
  else begin
    state.wake ();
    Option.join (Bqueue.pop reply)
  end

let scrub_pass state d =
  let dir = Checkpoint.dir d in
  let report =
    Scrub.scan ?faults:state.read_faults ~max_bytes_per_s:state.cfg.scrub_max_bytes_per_s ~dir ()
  in
  Atomic.incr state.scrub_passes;
  if report.Scrub.corrupt <> [] then begin
    ignore (Atomic.fetch_and_add state.scrub_corruptions (List.length report.Scrub.corrupt));
    (* The corrupt files may be the newest checkpoint or a sealed WAL
       segment the recovery chain still needs: re-checkpoint from the
       live (known-good) index first, and only quarantine once a fresh
       generation is durable.  On checkpoint failure the evidence
       stays in place and the next pass retries. *)
    if on_loop state (fun () -> Checkpoint.checkpoint_now d (serving_idx state)) = Some (Ok ())
    then
      ignore (Scrub.quarantine ~dir (List.map (fun c -> c.Scrub.file) report.Scrub.corrupt))
  end

(* One anti-entropy round on a replica: compare root digests with the
   primary at equal write-stream positions.  [suspicion] counts
   mismatches seen at equal positions; a round at differing positions
   (ordinary lag) neither counts nor resets it, and only a match at
   equal positions clears it.  The third mismatch is a divergence,
   whatever its cause (a lost record, a data edge applied twice, or an
   index layer refined differently by order-dependent D(k) updates):
   the replica resyncs a bit-identical snapshot from the primary.  That
   install is checkpointed like any bootstrap, so every change to a
   replica's index is a logged stream record or a checkpointed
   snapshot. *)
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
    | Wire.Digest_reply { generation = _; seq = pseq; offset = poff; n_nodes; root } -> (
      (* The digest of the applied state, stamped with the write-
         stream position it reflects. *)
      match on_loop state (fun () -> (digests state, state.digest_pos)) with
      | None -> ()
      | Some (mine, (seq, off)) ->
        if pseq < 0 || seq < 0 || pseq <> seq || poff <> off then ()
        else if n_nodes = mine.Integrity.n_nodes && root = mine.Integrity.root then
          suspicion := 0
        else begin
          (* One observation can still be an in-flight race; only a
             persistent mismatch counts as divergence. *)
          incr suspicion;
          if !suspicion >= 3 then begin
            suspicion := 0;
            Atomic.incr state.replica_divergences;
            Replication.force_resync r
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
   reads answered in place, writes queued on the job list and applied
   after the frame batch. *)

(* A peer (client or replica) presenting a higher epoch is proof that
   a newer primary was elected: remember it, and if we believed we
   were primary, fence ourselves. *)
let observe_epoch state e =
  if e > Atomic.get state.max_seen then Atomic.set state.max_seen e;
  if e > Atomic.get state.epoch && state.is_primary then
    state.fenced <- true

(* Route one decoded request.  Every read is answered at once against
   the serving index; its reply is buffered on the connection and
   flushed once per frame batch, so a connection's reads are answered
   in send order.  Writes are queued, with their arrival time, and
   applied once the whole batch is decoded. *)
let dispatch state conn ~id (req : Wire.request) =
  if Atomic.get state.stop then
    buffer_response conn ~id
      (Wire.Error_reply { code = `Shutting_down; message = "server shutting down" })
  else begin
    match req with
    (* Version negotiation must precede everything and never queue,
       and a subscribe converts the connection into a replication
       stream. *)
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
               role = (if state.is_primary then Wire.Primary else Wire.Replica);
             })
    | Wire.Rep_subscribe { replica_id; epoch = e; seq; offset } ->
      observe_epoch state e;
      if e > Atomic.get state.epoch then
        (* The subscriber outranks us: refuse — following a deposed
           primary would fork its lineage. *)
        buffer_response conn ~id (Wire.Fenced { epoch = Atomic.get state.max_seen })
      else if not state.is_primary then
        buffer_response conn ~id (not_primary_reply state)
      else (
        match state.hub with
        | None ->
          buffer_response conn ~id
            (Wire.Error_reply
               { code = `App; message = "replication requires a data directory on the primary" })
        | Some hub ->
          (* Hand the fd over with a clean write buffer. *)
          flush_responses conn;
          conn.detached <- true;
          Replication.attach hub ~fd:conn.fd ~replica_id ~seq ~offset)
    | Wire.Ping | Wire.Query_path _ | Wire.Stats | Wire.Query_planned _ | Wire.Explain _
    | Wire.Has_edge _ ->
      let resp =
        if stale_read state req then
          Wire.Error_reply { code = `Stale; message = "replica outside staleness bound" }
        else
          try handle_read state req
          with e -> Wire.Error_reply { code = `App; message = Printexc.to_string e }
      in
      buffer_response conn ~id resp;
      state.served <- state.served + 1;
      state.served_inline <- state.served_inline + 1
    | _ ->
      let p = { conn; id; req; arrival = Unix.gettimeofday () } in
      if Bqueue.try_push state.jobs (Write p) then state.in_flight <- state.in_flight + 1
      else begin
        state.shed <- state.shed + 1;
        buffer_response conn ~id Wire.Overloaded
      end
  end

let run ?(on_ready = fun (_ : int) -> ()) ?(handle_signals = true) ?durability ?replica_of
    ?hub_faults ?hub_heartbeat_s ?(repl_drop_nth = 0) ?read_faults ?(launch = launch ()) cfg
    index =
  stage launch Prepare (fun () -> Index_graph.prepare_serving index);
  let epoch0 =
    match durability with
    | Some d -> Replication.load_epoch ~dir:(Checkpoint.dir d)
    | None -> 0
  in
  let epoch = Atomic.make epoch0 in
  let max_seen = Atomic.make epoch0 in
  let mk_hub d = Replication.create_hub ?faults_for:hub_faults ?heartbeat_s:hub_heartbeat_s ~epoch d in
  let replica = Option.map (fun rc -> Replication.create_replica rc ~epoch ~max_seen) replica_of in
  let ev = Evloop.create () in
  (* Self-pipe: lets the server's threads (queued jobs) and signal
     handlers wake a loop that is parked in the kernel with no tick. *)
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake () =
    try ignore (Unix.write_substring pipe_w "x" 0 1)
    with Unix.Unix_error _ -> ()
  in
  let state =
    {
      cfg;
      reader = reader_of index;
      gen = 0;
      vcache_retired = (0, 0, 0);
      wake;
      durability;
      jobs = Bqueue.create cfg.queue_depth;
      in_flight = 0;
      stop = Atomic.make false;
      served = 0;
      served_inline = 0;
      shed = 0;
      proto_errors = 0;
      deadline_expired = 0;
      launch;
      evicted_slow_clients = 0;
      rejected_at_admission = 0;
      epoch;
      max_seen;
      is_primary = replica = None;
      fenced = false;
      hub = (match (durability, replica) with Some d, None -> Some (mk_hub d) | _ -> None);
      mk_hub;
      replica;
      repl_apply_errors = 0;
      digest_memo = None;
      digest_pos =
        (match (durability, replica) with
        | Some d, None -> Checkpoint.wal_position d
        | _ -> (-1, 0));
      repl_records_seen = 0;
      repl_drop_nth;
      read_faults;
      scrub_passes = Atomic.make 0;
      scrub_corruptions = Atomic.make 0;
      replica_divergences = Atomic.make 0;
      anti_entropy_rounds = Atomic.make 0;
      planned = 0;
      planned_index_scans = 0;
      planned_raw_scans = 0;
      explains = 0;
      plan_fallbacks = 0;
    }
  in
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
  let integrity_thread =
    if
      (cfg.scrub_interval_s > 0.0 && Option.is_some durability)
      || (cfg.anti_entropy_interval_s > 0.0 && Option.is_some replica)
    then Some (Thread.create (integrity_loop state) ())
    else None
  in
  (* The tailer's push blocks, never sheds: replication events apply
     FIFO with client writes. *)
  Option.iter
    (fun r ->
      Replication.start_replica r ~push:(fun ev ->
          Bqueue.push state.jobs (Repl ev);
          wake ()))
    replica;
  note_ready launch;
  on_ready port;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let close_conn conn =
    conn.closed <- true;
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
        state.rejected_at_admission <- state.rejected_at_admission + 1;
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
        let len = Cursor.u32_at (Bytes.unsafe_to_string conn.rbuf) off in
        if len > cfg.max_frame then begin
          buffer_response conn ~id:0
            (Wire.Error_reply
               {
                 code = `Protocol;
                 message = Printf.sprintf "frame of %d bytes exceeds limit %d" len cfg.max_frame;
               });
          flush_responses conn;
          state.proto_errors <- state.proto_errors + 1;
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
            state.proto_errors <- state.proto_errors + 1;
            buffer_response conn ~id:0 (Wire.Error_reply { code = `Protocol; message = msg })
          | Ok { id; msg = req } -> dispatch state conn ~id req);
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
          state.evicted_slow_clients <- state.evicted_slow_clients + 1;
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
    drain_jobs state;
    sweep_idle ()
  done;
  Evloop.remove ev listen_fd;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* Drain by closing: once the job list is closed no thread can queue
     a job, and every job admitted before that runs here — so the
     tailer and the integrity thread, which may wait on one, can be
     joined after. *)
  Bqueue.close state.jobs;
  drain_jobs state;
  Option.iter Replication.stop_replica state.replica;
  Option.iter Thread.join integrity_thread;
  Option.iter Replication.stop_hub (state.hub);
  (* Sockets go first: a failing final snapshot (disk full, say) must
     not leave descriptors open or the drain half-finished — it turns
     into an [Error _] the caller can exit nonzero on. *)
  Hashtbl.iter
    (fun _ c ->
      c.closed <- true;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
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
