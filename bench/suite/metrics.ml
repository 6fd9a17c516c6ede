(* Every metric dkbench reports, with its unit and direction.

   [gate] marks the end-to-end metrics that BENCHMARK.json names: every
   workload measures each of them, so the one-run result line can carry
   all of them for any workload.  [bound] is the share of the base
   median by which a metric may get worse before [compare] calls it a
   regression: 10%, except setup_s (below) and failed_ratio, where any
   increase regresses.

   A metric is gated only if two sets of runs of the same code agree
   within its bound.  On the 2-vCPU reference host none of the timing
   or memory metrics does (README.md has the spreads): the same code
   moves by 10-20% from one run to the next, even with the same seed,
   so they are reported, ungated, by [--runs] and [compare].  setup_s
   is gated in any case, so that work moved into set-up shows, with the
   largest bound BENCHMARK.json allows, 25%. *)

type t = {
  name : string;
  unit : string;
  better : Stats.better;
  bound : float;
  gate : bool;
  doc : string;
}

let m ?(gate = false) ?(bound = 0.10) name unit better doc = { name; unit; better; bound; gate; doc }

let end_to_end =
  Stats.
    [
      m "read_ops_per_s" "ops/s" Higher
        "completed reads / window; on restart the window includes every recovery and bootstrap";
      m "read_p50_us" "us" Lower "median read round trip";
      m "read_p99_us" "us" Lower "read round-trip p99, median over blocks of 1000 consecutive reads";
      m ~gate:true ~bound:0.25 "setup_s" "s" Lower "median of 7-21 launches: spawn -> listening line";
      m "server_peak_rss_mib" "MiB" Lower "primary VmHWM just before shutdown";
      m "write_ops_per_s" "ops/s" Higher "acknowledged writes / window";
      m "write_p50_us" "us" Lower "median write round trip, send -> Ok_reply";
      m "write_p99_us" "us" Lower "write round-trip p99";
      m "recovery_s" "s" Lower "median: spawn after SIGKILL -> first correct query reply";
      m "bootstrap_s" "s" Lower
        "median: replica spawn -> Stats shows a snapshot installed and no bytes behind";
      m "storage_bytes_per_write" "B" Lower
        "server write_bytes - cancelled_write_bytes over the window / acknowledged writes";
      m ~bound:0.0 "failed_ratio" "fraction" Lower
        "failed / attempted: errors, refusals, timeouts and wrong answers";
    ]

let find name = List.find_opt (fun x -> x.name = name) end_to_end
let gated = List.filter (fun x -> x.gate) end_to_end

(* Per-layer metrics of the traced replay (layer = module), each with
   the end-to-end metric and workload it should move.  They carry no
   bound. *)
type layer = { lname : string; lunit : string; lbetter : Stats.better; moves : string }

let l lname lunit lbetter moves = { lname; lunit; lbetter; moves }

let per_layer =
  Stats.
    [
      l "wire.encode_request_ns" "ns" Lower "read_p50_us @ hot-read";
      l "wire.decode_request_ns" "ns" Lower "read_p50_us @ hot-read";
      l "wire.encode_response_ns" "ns" Lower "read_p50_us @ hot-read, read_p99_us @ cold-read";
      l "wire.decode_response_ns" "ns" Lower "read_p50_us @ hot-read";
      l "wire.response_bytes" "B" Lower "read_p50_us @ cold-read";
      l "wire.alloc_words_per_read" "words" Lower "read_p99_us @ hot-read (GC pauses)";
      l "server.unattributed_us" "us" Lower "read_p50_us @ hot-read";
      l "server.served_inline_ratio" "fraction" Higher "read_p50_us @ hot-read";
      l "server.snapshot_swaps_per_write" "count" Lower "write_p50_us, read_ops_per_s @ mixed-write";
      l "server.shed" "count" Lower "failed_ratio @ all";
      l "planner.choose_ns" "ns" Lower "read_p50_us @ cold-read";
      l "planner.raw_plan_ratio" "fraction" Lower "read_p99_us @ cold-read";
      (* Median plan estimate / visits of the result; the estimates
         overshoot (1.7-2.0 on every workload), so lower is closer. *)
      l "planner.est_over_actual_visits" "ratio" Lower "read_p99_us @ cold-read";
      l "query_eval.eval_path_ns_p50" "ns" Lower "read_p50_us @ hot-read (cached), cold-read";
      l "query_eval.eval_path_ns_p99" "ns" Lower "read_p99_us @ hot-read (cached), cold-read";
      l "query_eval.eval_expr_ns_p50" "ns" Lower "read_p99_us @ cold-read";
      l "query_eval.eval_expr_ns_p99" "ns" Lower "read_p99_us @ cold-read";
      l "query_eval.index_visits_per_query" "count" Lower "read_p50_us @ cold-read";
      l "query_eval.data_visits_per_query" "count" Lower "read_p50_us @ cold-read";
      l "query_eval.ns_per_visit" "ns" Lower "read_p50_us @ cold-read";
      l "query_eval.certain_ratio" "fraction" Higher "read_p99_us @ cold-read";
      l "validation_cache.hit_ratio" "fraction" Higher "read_p50_us @ hot-read, mixed-write";
      l "validation_cache.entries" "count" Lower "read_p50_us @ hot-read, mixed-write";
      l "dk_update.add_edge_ns" "ns" Lower "write_p50_us @ mixed-write";
      l "dk_update.remove_edge_ns" "ns" Lower "write_p50_us @ mixed-write";
      l "dk_update.local_similarity_ns" "ns" Lower "write_p50_us @ mixed-write";
      l "index_graph.prepare_serving_ns" "ns" Lower "write_p50_us @ mixed-write";
      l "index_graph.clone_ms" "ms" Lower "setup_s @ all, bootstrap_s @ restart";
      l "index_graph.nodes" "count" Lower "none: shape guard, moves only when the index does";
      l "index_graph.edges" "count" Lower "none: shape guard, moves only when the index does";
      l "wal.append_ns" "ns" Lower "write_p50_us @ mixed-write";
      l "wal.sync_us" "us" Lower "write_p99_us @ mixed-write";
      l "wal.bytes_per_record" "B" Lower "storage_bytes_per_write @ mixed-write";
      l "wal.replay_ns_per_record" "ns" Lower "recovery_s @ restart";
      l "checkpoint.write_ms" "ms" Lower "read_p99_us, write_p99_us @ mixed-write";
      l "checkpoint.bytes" "B" Lower "storage_bytes_per_write @ mixed-write";
      l "checkpoint.written" "count" Higher "storage_bytes_per_write @ mixed-write (at least 3 per window)";
      l "checkpoint.recover_ms" "ms" Lower "recovery_s @ restart";
      l "checkpoint.apply_mutation_ns" "ns" Lower "recovery_s @ restart";
      l "index_serial.to_string_ms" "ms" Lower "bootstrap_s, recovery_s @ restart";
      l "index_serial.of_string_ms" "ms" Lower "bootstrap_s, recovery_s @ restart";
      l "index_serial.text_bytes" "B" Lower "bootstrap_s, recovery_s @ restart";
      l "index_serial.save_container_ms" "ms" Lower "none yet: baseline for a single format";
      l "index_serial.load_container_ms" "ms" Lower "none yet: baseline for a single format";
      l "index_serial.container_bytes" "B" Lower "none yet: baseline for a single format";
      l "datagen.xmark_ms" "ms" Lower "setup_s @ all";
      l "dk_index.build_ms" "ms" Lower "setup_s @ all";
      l "trace.overhead_pct" "%" Lower "none: must stay at most 3";
    ]
