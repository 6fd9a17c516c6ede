(* dkbench: end-to-end benchmark for dkserve.  See README.md.

   One run of one workload (the form BENCHMARK.json's command uses):
     dkbench --workload hot-read --seed 1 --seconds 20 --trace 0
   prints a human summary and, as its last line, one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics of the
   traced replay (--trace 1, trace files in _build/dkbench/trace).

   Repeated runs, interleaved across workloads, with medians and
   quartiles:
     dkbench --seed 1 --runs 5 [--workloads a,b] [--trace DIR] --out FILE

   Verdicts between two such reports:
     dkbench compare BASE.json HEAD.json

   The tier-1 smoke (small scales, 1 s windows, every workload traced):
     dkbench --smoke --benchmark BENCHMARK.json *)

module W = Workloads

let server = ref "_build/default/bin/server_main.exe"
let work = ref "_build/dkbench/work"
let seed = ref 1
let seconds = ref 20.0
let workload = ref ""
let workloads = ref ""
let runs = ref 0
let trace = ref ""
let out = ref ""
let smoke = ref false
let benchmark = ref "BENCHMARK.json"
let anon = ref []

let spec =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, "NAME one run of one workload");
      ("--seed", Arg.Set_int seed, "N seed of the request and write streams (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed window of a run (default 20)");
      ( "--trace",
        Arg.Set_string trace,
        "0|1|DIR also run the traced replay: with --workload, 1 reports its per-layer metrics; \
         with --runs, DIR receives the traces" );
      ("--runs", Arg.Set_int runs, "N runs of every workload, interleaved");
      ("--workloads", Arg.Set_string workloads, "a,b restrict --runs to these workloads");
      ("--out", Arg.Set_string out, "FILE where --runs writes its JSON report");
      ("--server", Arg.Set_string server, "EXE dkindex-server binary");
      ("--work", Arg.Set_string work, "DIR scratch directory, emptied by every run");
      ("--smoke", Arg.Set smoke, " tier-1 smoke run");
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json checked by --smoke");
    ]

let usage = "dkbench [--workload NAME | --runs N | --smoke | compare BASE HEAD] [options]"
let die fmt = Printf.ksprintf (fun m -> prerr_endline ("dkbench: " ^ m); exit 2) fmt

let config ?(smoke = false) () =
  { W.server_exe = !server; work = !work; seed = !seed; window_s = (if smoke then 1.0 else !seconds); smoke }

let unit_of name = match Metrics.find name with Some m -> m.unit | None -> "count"
let num_or_null = Option.fold ~none:Json.Null ~some:(fun v -> Json.Num v)
let better_str = function Stats.Higher -> "higher" | Stats.Lower -> "lower"

(* ------------------------------------------------------------------ *)
(* One run *)

let print_result (r : W.result) =
  Printf.printf "%s (scale %d, seed %d): %d attempted, %d failed\n" (W.to_string r.workload) r.scale
    !seed r.tally.attempted r.tally.failed;
  List.iter (fun e -> Printf.printf "  error: %s\n" e) (List.rev r.tally.errors);
  List.iter
    (fun (k, v) ->
      Printf.printf "  %-26s %12s %s\n" k
        (Option.fold ~none:"null" ~some:(Printf.sprintf "%.6g") v)
        (unit_of k))
    r.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-26s %12d\n" k v) r.counts;
  if r.workload = W.Mixed_write && W.count r "checkpoints_written" < 3 then
    Printf.printf "  note: fewer than 3 checkpoints in the window\n"

let layers_file dir = Filename.concat dir "layers.json"

(* Merge one workload's entry into DIR/layers.json: every per-layer
   metric with its unit, direction and the end-to-end metric it should
   move, and the self time of every span. *)
let write_layers dir w (o : Replay.outcome) =
  let metric (k, v) =
    ( k,
      match List.find_opt (fun (l : Metrics.layer) -> l.lname = k) Metrics.per_layer with
      | Some l ->
        Json.Obj
          [
            ("value", Json.Num v);
            ("unit", Json.Str l.lunit);
            ("better", Json.Str (better_str l.lbetter));
            ("moves", Json.Str l.moves);
          ]
      | None -> Json.Obj [ ("value", Json.Num v) ] )
  in
  let entry =
    Json.Obj
      [
        ("metrics", Json.Obj (List.map metric o.layers));
        ("spans_self_time", Replay.span_table o.spans);
        ("spans_dropped", Json.int (Spans.dropped o.spans));
      ]
  in
  let old =
    match Json.of_file (layers_file dir) with
    | Json.Obj l -> List.remove_assoc (W.to_string w) l
    | _ | (exception _) -> []
  in
  Json.to_file (layers_file dir) (Json.Obj (old @ [ (W.to_string w, entry) ]))

let traced cfg w r ~dir =
  let o = Replay.run cfg w r ~trace_dir:dir in
  write_layers dir w o;
  o

let result_line ~correct (r : W.result) metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.int r.tally.attempted);
         ("failed", Json.int r.tally.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                metrics) );
       ])

let one_run name =
  let w = match W.of_string name with Some w -> w | None -> die "unknown workload %s" name in
  let trace_dir =
    match !trace with
    | "" | "0" -> None
    | "1" -> Some (Filename.concat (Filename.dirname !work) "trace")
    | d -> Some d
  in
  let cfg = config () in
  let r = W.run cfg w in
  print_result r;
  let correct = ref (r.tally.failed = 0) in
  let metrics =
    match trace_dir with
    | None ->
      List.map
        (fun (m : Metrics.t) ->
          match W.metric r m.name with
          | Some v -> (m.name, v, m.unit)
          | None -> die "%s: too few samples for %s" name m.name)
        Metrics.gated
    | Some dir ->
      let o = traced cfg w r ~dir in
      List.iter
        (fun p ->
          Printf.printf "  %s\n" p;
          correct := false)
        (Replay.problems w o);
      List.iter (fun (k, v) -> Printf.printf "  %-36s %14.6g\n" k v) o.layers;
      List.map
        (fun (l : Metrics.layer) -> (l.lname, List.assoc l.lname o.layers, l.lunit))
        Metrics.per_layer
  in
  print_endline (result_line ~correct:!correct r metrics);
  if not !correct then exit 1

(* ------------------------------------------------------------------ *)
(* Repeated runs *)

let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let line = In_channel.input_line ic in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

let summary_json name values ~samples =
  let head =
    match Metrics.find name with
    | Some m ->
      [
        ("unit", Json.Str m.unit);
        ("better", Json.Str (better_str m.better));
        ("bound", Json.Num m.bound);
        ("definition", Json.Str m.doc);
      ]
    | None -> [ ("unit", Json.Str "count") ]
  in
  let samples = ("samples_per_run", Json.Arr (List.map Json.int samples)) in
  if Array.length values = 0 then Json.Obj (head @ [ ("median", Json.Null); ("n", Json.int 0); samples ])
  else
    let s = Stats.summarize values in
    Json.Obj
      (head
      @ [
          ("median", Json.Num s.median);
          ("q1", Json.Num s.q1);
          ("q3", Json.Num s.q3);
          ("min", Json.Num s.min);
          ("max", Json.Num s.max);
          ("spread_pct", Json.Num s.spread_pct);
          ("n", Json.int s.n);
          ("values", Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) values)));
          samples;
        ])

let run_json run la0 la1 ~loaded (r : W.result) =
  Json.Obj
    [
      ("workload", Json.Str (W.to_string r.workload));
      ("run", Json.int run);
      ("loadavg_start", Json.Num la0);
      ("loadavg_end", Json.Num la1);
      ("loaded", Json.Bool loaded);
      ("attempted", Json.int r.tally.attempted);
      ("failed", Json.int r.tally.failed);
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) (List.rev r.tally.errors)));
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num_or_null v)) r.metrics));
      ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.counts));
    ]

(* Sample count behind a metric: writes for write_*, reads otherwise. *)
let samples_of (r : W.result) name =
  W.count r (if String.length name > 6 && String.sub name 0 6 = "write_" then "writes" else "reads")

let multi_run () =
  if !out = "" then die "--runs needs --out FILE";
  let ws =
    if !workloads = "" then W.all
    else
      List.map
        (fun s -> match W.of_string s with Some w -> w | None -> die "unknown workload %s" s)
        (String.split_on_char ',' !workloads)
  in
  let cfg = config () in
  let nproc = Proc.nproc () in
  let results = ref [] and run_meta = ref [] and traces = ref [] in
  for run = 1 to !runs do
    List.iter
      (fun w ->
        let la0 = Proc.loadavg1 () in
        let r = W.run cfg w in
        let la1 = Proc.loadavg1 () in
        print_result r;
        let loaded = la0 > float_of_int nproc in
        if loaded then Printf.printf "  flagged: loadavg %.2f > nproc %d at start\n" la0 nproc;
        results := r :: !results;
        run_meta := run_json run la0 la1 ~loaded r :: !run_meta;
        (* Trace right after the first run: server.unattributed_us
           compares the replay with served reads, and the host's speed
           drifts over the minutes a whole report takes. *)
        if run = 1 && !trace <> "" then traces := (w, traced cfg w r ~dir:!trace) :: !traces)
      ws
  done;
  let results = List.rev !results and traces = !traces in
  let of_w w = List.filter (fun (r : W.result) -> r.workload = w) results in
  Printf.printf "\n%-12s %-24s %-8s %12s %12s %12s %8s %3s\n" "workload" "metric" "unit" "median" "q1"
    "q3" "spread%" "n";
  let summary w =
    let rs = of_w w in
    let row (name, _) =
      let values = Array.of_list (List.filter_map (fun r -> W.metric r name) rs) in
      let samples = List.map (fun r -> samples_of r name) rs in
      (if Array.length values = 0 then
         Printf.printf "%-12s %-24s %-8s %12s  samples per run: %s\n" (W.to_string w) name (unit_of name)
           "null"
           (String.concat "," (List.map string_of_int samples))
       else
         let s = Stats.summarize values in
         Printf.printf "%-12s %-24s %-8s %12.6g %12.6g %12.6g %8.2f %3d\n" (W.to_string w) name
           (unit_of name) s.median s.q1 s.q3 s.spread_pct s.n);
      (name, summary_json name values ~samples)
    in
    let layers =
      match List.assoc_opt w traces with
      | Some o -> [ ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.layers)) ]
      | None -> []
    in
    (W.to_string w, Json.Obj (List.map row (List.hd rs).metrics @ layers))
  in
  let summary = List.map summary ws in
  let workload_meta w =
    ( W.to_string w,
      Json.Obj
        [
          ("scale", Json.int (W.scale cfg w));
          ("setup_launches", Json.int (W.launches w));
          ("why", Json.Str (W.why w));
          ("server_argv", Json.Arr (List.map (fun a -> Json.Str a) (List.hd (of_w w)).server_argv));
        ] )
  in
  let meta =
    Json.Obj
      [
        ("git_commit", Option.fold ~none:Json.Null ~some:(fun s -> Json.Str s) (git_commit ()));
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("nproc", Json.int nproc);
        ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
        ("seed", Json.int !seed);
        ("dataset_seed", Json.int W.dataset_seed);
        ("runs", Json.int !runs);
        ("window_s", Json.Num cfg.window_s);
        ("warmup_s", Json.Num (W.warmup_s cfg));
        ("workloads", Json.Obj (List.map workload_meta ws));
      ]
  in
  Json.to_file !out
    (Json.Obj [ ("meta", meta); ("summary", Json.Obj summary); ("runs", Json.Arr (List.rev !run_meta)) ]);
  Printf.printf "wrote %s\n" !out;
  let failed = List.fold_left (fun acc (r : W.result) -> acc + r.tally.failed) 0 results in
  let replay = List.concat_map (fun (w, o) -> Replay.problems w o) traces in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) replay;
  if failed > 0 then Printf.printf "FAILED: %d failed requests\n" failed;
  if failed > 0 || replay <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* compare *)

(* One row per workload: each end-to-end metric's verdict by the rule
   in Stats.verdict, and the change of its median.  Exits 1 if any
   metric regressed. *)
let compare_files base head =
  let load f = try Json.of_file f with e -> die "%s: %s" f (Printexc.to_string e) in
  let summary f =
    match Json.member "summary" (load f) with
    | Some (Json.Obj l) -> l
    | _ -> die "%s is not a --runs report" f
  in
  let b = summary base and h = summary head in
  let values s =
    Array.of_list (List.filter_map Json.to_float (Json.to_list (Option.value ~default:Json.Null (Json.member "values" s))))
  in
  let regressed = ref false in
  let cell bm hm (m : Metrics.t) =
    match (Json.member m.name bm, Json.member m.name hm) with
    | Some bs, Some hs ->
      let bv = values bs and hv = values hs in
      if Array.length bv = 0 || Array.length hv = 0 then None
      else
        let v = Stats.verdict ~better:m.better ~bound:m.bound ~base:bv ~head:hv in
        if v = Stats.Regressed then regressed := true;
        let mb = Stats.median bv and mh = Stats.median hv in
        let change = if mb = 0.0 then 0.0 else (mh -. mb) /. Float.abs mb *. 100.0 in
        Some (Printf.sprintf "%s %s (%+.1f%%)" m.name (Stats.verdict_to_string v) change)
    | _ -> None
  in
  List.iter
    (fun (w, bm) ->
      match List.assoc_opt w h with
      | None -> Printf.printf "%-12s missing from %s\n" w head
      | Some hm ->
        Printf.printf "%-12s %s\n" w (String.concat "; " (List.filter_map (cell bm hm) Metrics.end_to_end)))
    b;
  if !regressed then exit 1

(* ------------------------------------------------------------------ *)
(* smoke *)

let smoke_run () =
  let t0 = Clock.now_s () in
  let bench = try Json.of_file !benchmark with e -> die "%s: %s" !benchmark (Printexc.to_string e) in
  let names key =
    List.filter_map
      (fun m -> Option.bind (Json.member "name" m) Json.to_str)
      (Json.to_list (Option.value ~default:Json.Null (Json.member key bench)))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let sorted l = List.sort compare l in
  if sorted (names "workloads") <> sorted (List.map W.to_string W.all) then
    problem "BENCHMARK.json names workloads %s" (String.concat "," (names "workloads"));
  if sorted (names "end_to_end") <> sorted (List.map (fun (m : Metrics.t) -> m.name) Metrics.gated) then
    problem "BENCHMARK.json end_to_end differs from the gated metrics";
  if sorted (names "per_layer") <> sorted (List.map (fun (l : Metrics.layer) -> l.lname) Metrics.per_layer)
  then problem "BENCHMARK.json per_layer differs from dkbench's";
  let tmp = Filename.temp_dir "dkbench-smoke" "" in
  work := Filename.concat tmp "work";
  let cfg = config ~smoke:true () in
  let trace_dir = Filename.concat tmp "trace" in
  let check w =
    let r = W.run cfg w in
    print_result r;
    let ws = W.to_string w in
    if r.tally.failed > 0 then problem "%s: %d failed requests" ws r.tally.failed;
    List.iter
      (fun n -> if W.metric r n = None then problem "%s: metric %s not emitted" ws n)
      (names "end_to_end");
    if w = W.Restart && W.count r "recovery_replayed_records" <> W.restart_writes cfg then
      problem "restart: a recovery replayed %d WAL records" (W.count r "recovery_replayed_records");
    let o = traced cfg w r ~dir:trace_dir in
    List.iter (fun p -> problem "%s: %s" ws p) (Replay.problems w o);
    List.iter
      (fun n -> if not (List.mem_assoc n o.layers) then problem "%s: per-layer %s not emitted" ws n)
      (names "per_layer");
    match Json.member "traceEvents" (Json.of_file (Filename.concat trace_dir (ws ^ ".trace.json"))) with
    | Some (Json.Arr (_ :: _)) -> ()
    | _ -> problem "%s: empty trace file" ws
  in
  List.iter check W.all;
  (match Json.of_file (layers_file trace_dir) with
  | Json.Obj l when List.length l = List.length W.all -> ()
  | _ -> problem "layers.json lacks a workload");
  Proc.rm_rf tmp;
  match !problems with
  | [] -> Printf.printf "dkbench smoke: OK (%.1f s)\n" (Clock.now_s () -. t0)
  | ps ->
    List.iter (fun p -> Printf.printf "dkbench smoke: %s\n" p) (List.rev ps);
    exit 1

let () =
  at_exit Proc.cleanup;
  Clock.init ();
  Arg.parse spec (fun a -> anon := a :: !anon) usage;
  match List.rev !anon with
  | [ "compare"; base; head ] -> compare_files base head
  | _ :: _ -> die "usage: %s" usage
  | [] ->
    if !smoke then smoke_run ()
    else if !workload <> "" then one_run !workload
    else if !runs > 0 then multi_run ()
    else die "usage: %s" usage
