(* dkindex: command-line driver.

   Subcommands:
     generate   write a synthetic XMark/NASA/random dataset (XML or graph)
     stats      print statistics of a dataset
     build      build an index and print its size / similarity profile
     query      evaluate a path expression through an index
     workload   generate a query workload and show the mined requirements
     dot        export a dataset to Graphviz *)

open Cmdliner
open Dkindex_graph
open Dkindex_core
open Dkindex_baselines
module Xml_sax = Dkindex_xml.Xml_sax
module Xml_to_graph = Dkindex_xml.Xml_to_graph
module Xml_writer = Dkindex_xml.Xml_writer

(* ------------------------------------------------------------------ *)
(* Shared argument handling                                            *)

let comma_list s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let load_graph ~input ~id_attrs ~idref_attrs =
  match Container.probe input with
  | Some Container.Graph -> Container.open_graph input
  | Some Container.Index ->
    failwith (input ^ " is an index container; pass it to `query --load-index`")
  | None ->
  if Filename.check_suffix input ".xml" then begin
    let config =
      {
        Xml_to_graph.id_attrs = (if id_attrs = [] then [ "id" ] else id_attrs);
        idref_attrs = (if idref_attrs = [] then [ "idref"; "ref" ] else idref_attrs);
      }
    in
    let result = Xml_to_graph.convert_file ~config input in
    if result.Xml_to_graph.unresolved_refs <> [] then
      Printf.eprintf "warning: %d unresolved references\n"
        (List.length result.Xml_to_graph.unresolved_refs);
    result.Xml_to_graph.graph
  end
  else Serial.load input

let input_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input dataset (.xml or .graph)")

let id_attrs_arg =
  Arg.(
    value & opt string "id"
    & info [ "id-attrs" ] ~docv:"NAMES" ~doc:"Comma-separated ID attribute names")

let idref_attrs_arg =
  Arg.(
    value & opt string "idref,ref"
    & info [ "idref-attrs" ] ~docv:"NAMES" ~doc:"Comma-separated IDREF attribute names")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed")

let graph_term =
  let make input id_attrs idref_attrs =
    load_graph ~input ~id_attrs:(comma_list id_attrs) ~idref_attrs:(comma_list idref_attrs)
  in
  Term.(const make $ input_arg $ id_attrs_arg $ idref_attrs_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate dataset scale seed output stream =
  (* A graph file comes from the generator's graph route (XMark's skips
     the XML layer); its stats must equal the parsed .xml's. *)
  let write doc graph =
    if Filename.check_suffix output ".xml" then Xml_writer.write_file output (doc ())
    else Serial.save output (graph ())
  in
  (if stream then
     (* Streamed generation: edges go through an external sorter into a
        container file; peak memory is one XML subtree, independent of
        scale.  Byte-identical to materializing and saving. *)
     match dataset with
     | "xmark" -> ignore (Dkindex_datagen.Xmark.stream ~seed ~scale ~path:output ())
     | "nasa" -> ignore (Dkindex_datagen.Nasa.stream ~seed ~scale ~path:output ())
     | "random" ->
       Dkindex_datagen.Random_graph.stream ~seed ~nodes:(scale * 100) ~n_labels:12
         ~extra_edges:(scale * 10) ~path:output ()
     | "treebank" -> failwith "treebank has no streaming generator (xmark | nasa | random)"
     | other ->
       failwith (Printf.sprintf "unknown dataset %S (xmark | nasa | random)" other)
   else
     match dataset with
     | "xmark" -> Dkindex_datagen.Xmark.(write (doc ~seed ~scale) (graph ~seed ~scale))
     | "nasa" -> Dkindex_datagen.Nasa.(write (doc ~seed ~scale) (graph ~seed ~scale))
     | "treebank" -> Dkindex_datagen.Treebank.(write (doc ~seed ~scale) (graph ~seed ~scale))
     | "random" ->
       if Filename.check_suffix output ".xml" then
         failwith "random graphs are not XML documents; use a .graph output"
       else
         Serial.save output
           (Dkindex_datagen.Random_graph.graph ~seed ~nodes:(scale * 100) ~n_labels:12
              ~extra_edges:(scale * 10) ())
     | other ->
       failwith (Printf.sprintf "unknown dataset %S (xmark | nasa | treebank | random)" other));
  Printf.printf "wrote %s\n" output

let generate_cmds =
  let dataset =
    Arg.(
      value & opt string "xmark"
      & info [ "dataset" ] ~docv:"NAME" ~doc:"xmark | nasa | treebank | random")
  in
  let scale =
    Arg.(value & opt int 100 & info [ "scale" ] ~docv:"N" ~doc:"Dataset scale")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output (.xml or .graph)")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stream edges straight into a binary container file without \
             materializing the dataset in memory (xmark | nasa | random)")
  in
  let term = Term.(const generate $ dataset $ scale $ seed_arg $ output $ stream) in
  ( Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic dataset") term,
    Cmd.v (Cmd.info "datagen" ~doc:"Alias of generate") term )

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let stats g top =
  Format.printf "%a@." Data_graph.pp_stats (Data_graph.stats g);
  Format.printf "top labels by population:@.";
  List.iteri
    (fun i (name, count) ->
      if i < top then Format.printf "  %-28s %d@." name count)
    (Traversal.label_counts g)

let stats_cmd =
  let top = Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc:"Labels to list") in
  Cmd.v (Cmd.info "stats" ~doc:"Print dataset statistics") Term.(const stats $ graph_term $ top)

(* ------------------------------------------------------------------ *)
(* index construction shared by build/query                            *)

let make_index ?(mode = `Auto) g kind k workload_size seed =
  match kind with
  | "label-split" | "a0" -> Label_split.build g
  | "ak" -> A_k_index.build ~mode g ~k
  | "1-index" | "one" -> One_index.build ~mode g
  | "fb" -> Fb_index.build g
  | "dk" ->
    let queries = Dkindex_workload.Query_gen.generate ~seed ~count:workload_size g in
    let reqs = Dkindex_workload.Miner.mine g queries in
    Dk_index.build ~mode g ~reqs
  | other ->
    failwith (Printf.sprintf "unknown index %S (label-split | ak | 1-index | fb | dk)" other)

let index_kind_arg =
  Arg.(
    value & opt string "dk"
    & info [ "index" ] ~docv:"KIND" ~doc:"label-split | ak | 1-index | fb | dk")

let k_arg = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"k for the A(k)-index")

let workload_arg =
  Arg.(
    value & opt int 100
    & info [ "workload-queries" ] ~docv:"N" ~doc:"Workload size used to tune the D(k)-index")

let build g kind k workload_size seed save out_of_core max_heap_mb =
  let mode = if out_of_core then `External else `Auto in
  let t0 = Unix.gettimeofday () in
  let idx = make_index ~mode g kind k workload_size seed in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Printf.printf "%s built in %.1f ms\n" kind ms;
  (match save with
  | Some path ->
    if Filename.check_suffix path ".dkc" then Index_serial.save_container path idx
    else Index_serial.save path idx;
    Printf.printf "saved to %s\n" path
  | None -> ());
  Format.printf "%a@?" Index_stats.pp (Index_stats.compute idx);
  let heap_bytes = Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8) in
  Printf.printf "peak OCaml heap: %.1f MiB\n" (float_of_int heap_bytes /. 1048576.0);
  match max_heap_mb with
  | Some cap when heap_bytes > cap * 1024 * 1024 ->
    Printf.eprintf "error: peak heap %d bytes exceeds --max-heap-mb %d\n" heap_bytes cap;
    exit 1
  | _ -> ()

let build_cmd =
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Persist the index for later `query --load-index` (a .dkc suffix \
             selects the binary container format)")
  in
  let out_of_core =
    Arg.(
      value & flag
      & info [ "out-of-core" ]
          ~doc:
            "Force the external-memory refinement path (sort/scan passes over \
             temp files) regardless of graph size")
  in
  let max_heap_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-heap-mb" ] ~docv:"MB"
          ~doc:"Fail (exit 1) if the peak OCaml heap exceeds this many MiB")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build an index and print its profile")
    Term.(
      const build $ graph_term $ index_kind_arg $ k_arg $ workload_arg $ seed_arg $ save
      $ out_of_core $ max_heap_mb)

(* ------------------------------------------------------------------ *)
(* query                                                               *)

let eval_one idx kind expr_str =
  (* A leading '/' selects the tree-pattern language; anything else is
     a regular path expression. *)
  if String.length expr_str > 0 && Char.equal expr_str.[0] '/' then
    let pattern = Dkindex_pathexpr.Tree_pattern.parse expr_str in
    Query_eval.eval_pattern ~validate:(not (String.equal kind "fb")) idx pattern
  else
    let expr = Dkindex_pathexpr.Path_parser.parse expr_str in
    match Dkindex_pathexpr.Path_ast.as_label_seq expr with
    | Some labels -> Query_eval.eval_path_strings idx labels
    | None -> Query_eval.eval_expr idx expr

let print_result g show result =
  Printf.printf "%d matching nodes (cost: %s; %d candidates validated, %d sound index nodes)\n"
    (List.length result.Query_eval.nodes)
    (Format.asprintf "%a" Dkindex_pathexpr.Cost.pp result.Query_eval.cost)
    result.Query_eval.n_candidates result.Query_eval.n_certain;
  List.iteri
    (fun i u ->
      if i < show then Printf.printf "  node %d label %s\n" u (Data_graph.label_name g u))
    result.Query_eval.nodes

let load_index path =
  match Container.probe path with
  | Some Container.Index -> Index_serial.load_container path
  | Some Container.Graph ->
    failwith (path ^ " is a graph container, not an index; pass it to --input")
  | None -> Index_serial.load path

(* --plan: route the query through the cost-based planner over the one
   index --index built or --load-index loaded, and the raw graph. *)
let planned_query idx name expr_str plan_sel explain show check =
  let module Plan = Dkindex_planner.Plan in
  let module Planner = Dkindex_planner.Planner in
  if String.length expr_str > 0 && Char.equal expr_str.[0] '/' then
    failwith "--plan covers path expressions; tree patterns pick their index with --index";
  let expr = Dkindex_pathexpr.Path_parser.parse expr_str in
  let pl = Planner.create (Index_graph.data idx) in
  Planner.register pl ~name ~cache:(Validation_cache.create idx) idx;
  if explain then List.iter print_endline (Planner.explain pl expr);
  let plans = Planner.plans pl expr in
  let plan, result =
    match plan_sel with
    | "auto" -> Planner.eval_planned pl expr
    | sel -> (
      let wanted (p : Plan.t) =
        match p.Plan.access with
        | Plan.Scan n -> String.equal n sel
        | Plan.Raw -> String.equal sel "raw"
      in
      match List.find_opt wanted plans with
      | Some p -> (p, Planner.execute pl p expr)
      | None -> failwith (Printf.sprintf "no plan for --plan %s (auto | %s | raw)" sel name))
  in
  Printf.printf "plan: %s\n" (Plan.describe plan);
  print_result (Index_graph.data idx) show result;
  if check then begin
    (* Execute every plan and require bit-for-bit identical answers
       (the raw-graph plan is always in the list, so this also checks
       against direct evaluation). *)
    let mismatches =
      List.filter
        (fun p -> (Planner.execute pl p expr).Query_eval.nodes <> result.Query_eval.nodes)
        plans
    in
    if mismatches <> [] then begin
      List.iter
        (fun p -> Printf.eprintf "error: --check mismatch on %s\n" (Plan.access_name p.Plan.access))
        mismatches;
      exit 1
    end;
    Printf.printf "check OK: %d plans agree (%d nodes)\n" (List.length plans)
      (List.length result.Query_eval.nodes)
  end

let query g kind k workload_size seed load expr_str show check plan_sel explain =
  let idx, name =
    match load with
    | Some path -> (load_index path, "loaded")
    | None -> (make_index g kind k workload_size seed, kind)
  in
  match plan_sel, explain with
  | Some sel, _ -> planned_query idx name expr_str sel explain show check
  | None, true -> planned_query idx name expr_str "auto" true show check
  | None, false ->
  let g = Index_graph.data idx in
  let result = eval_one idx kind expr_str in
  print_result g show result;
  if check then begin
    (* Cross-check against a fully in-RAM copy: Index_graph.copy puts
       every vector in freshly allocated memory, so when the index came
       from a mapped container this compares mmap-backed evaluation
       against unmapped evaluation bit for bit. *)
    let ram = Index_graph.copy idx in
    let result' = eval_one ram kind expr_str in
    if result.Query_eval.nodes <> result'.Query_eval.nodes then begin
      Printf.eprintf "error: --check mismatch (%d mapped vs %d in-RAM nodes)\n"
        (List.length result.Query_eval.nodes)
        (List.length result'.Query_eval.nodes);
      exit 1
    end;
    Printf.printf "check OK: in-RAM evaluation matches (%d nodes)\n"
      (List.length result'.Query_eval.nodes)
  end

let query_cmd =
  let expr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPR" ~doc:"Path expression, e.g. 'director.movie.title'")
  in
  let show = Arg.(value & opt int 10 & info [ "show" ] ~docv:"N" ~doc:"Results to print") in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load-index" ] ~docv:"FILE"
          ~doc:
            "Use a previously saved index (text or .dkc container, \
             autodetected) instead of building one")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-evaluate on a fully in-RAM copy of the index and fail unless \
             the answers agree bit for bit (with --plan: execute the index \
             scan and the raw-graph plan and require identical answers)")
  in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Route the query through the cost-based planner over the index \
             (from --index or --load-index) and the raw graph. 'auto' scans \
             the index, falling back to the raw graph; 'raw' forces the \
             raw-graph walk, and the index's name (its --index KIND, or \
             'loaded') forces the scan")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print the candidate plans with cost estimates (implies --plan auto)")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Evaluate a query through an index: a regular path expression \
          ('a.b.c', 'a.(b|c)*.d'), or, starting with '/', a branching tree \
          pattern ('//a[./b]//c')")
    Term.(
      const query $ graph_term $ index_kind_arg $ k_arg $ workload_arg $ seed_arg $ load $ expr
      $ show $ check $ plan $ explain)

(* ------------------------------------------------------------------ *)
(* workload                                                            *)

let workload g count seed =
  let queries = Dkindex_workload.Query_gen.generate ~seed ~count g in
  Format.printf "generated %d queries:@." (List.length queries);
  List.iter (fun q -> Format.printf "  %a@." (Dkindex_workload.Query_gen.pp_query g) q) queries;
  let reqs = Dkindex_workload.Miner.mine g queries in
  Format.printf "mined requirements:@.";
  List.iter (fun (l, k) -> Format.printf "  %-28s k >= %d@." l k) reqs

let workload_cmd =
  let count = Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Queries") in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a workload and mine requirements")
    Term.(const workload $ graph_term $ count $ seed_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)

let dot g output max_nodes =
  Dot.write_dot ~max_nodes output g;
  Printf.printf "wrote %s\n" output

let dot_cmd =
  let output =
    Arg.(
      required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"DOT file")
  in
  let max_nodes =
    Arg.(value & opt int 500 & info [ "max-nodes" ] ~docv:"N" ~doc:"Node cap")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a dataset to Graphviz")
    Term.(const dot $ graph_term $ output $ max_nodes)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)

let verify g kind k workload_size seed load quick =
  let idx =
    match load with Some path -> load_index path | None -> make_index g kind k workload_size seed
  in
  let g = Index_graph.data idx in
  let queries =
    match Dkindex_workload.Query_gen.generate ~seed ~count:50 g with
    | queries -> queries
    | exception Invalid_argument _ -> []
  in
  let report = Verify.run ~quick ~queries idx in
  Format.printf "%a@?" Verify.pp_report report;
  if report.Verify.issues <> [] then exit 1

let verify_cmd =
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load-index" ] ~docv:"FILE" ~doc:"Verify a previously saved index")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Skip the label-path soundness check") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Audit an index: structural invariants, extent soundness, query exactness")
    Term.(
      const verify $ graph_term $ index_kind_arg $ k_arg $ workload_arg $ seed_arg $ load $ quick)

(* ------------------------------------------------------------------ *)
(* check-history                                                       *)

let check_history file staleness =
  let module History = Dkindex_server.History in
  let entries, final = History.load file in
  let report =
    History.check ~staleness_bound_ms:(int_of_float (staleness *. 1000.0)) ~final entries
  in
  print_endline (History.report_to_string report);
  if not report.History.ok then exit 4

let check_history_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Operation history saved by dkindex-loadgen --nemesis --history FILE")
  in
  let staleness =
    Arg.(
      value & opt float 10.0
      & info [ "staleness-check" ] ~docv:"SECONDS"
          ~doc:
            "Staleness bound to enforce on wire-stamped replica ages (match the server's \
             --staleness-bound; <= 0 disables)")
  in
  Cmd.v
    (Cmd.info "check-history"
       ~doc:
         "Re-run the acknowledged-history consistency checker offline on a saved history \
          (acked writes survive, reads monotonic, staleness bounded); exit 4 on violation")
    Term.(const check_history $ file $ staleness)

(* ------------------------------------------------------------------ *)

(* Global --verbose handling: each subcommand's term already built, so
   install the reporter from an environment check at startup. *)
let () =
  (match Sys.getenv_opt "DKINDEX_VERBOSE" with
  | Some ("1" | "true" | "debug") ->
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Dkindex_core.Log.src (Some Logs.Debug)
  | Some _ | None -> ());
  let info =
    Cmd.info "dkindex" ~version:"1.0.0"
      ~doc:"Adaptive structural summaries for graph-structured data (SIGMOD 2003 D(k)-index)"
  in
  let generate_cmd, datagen_cmd = generate_cmds in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; datagen_cmd; stats_cmd; build_cmd; query_cmd; workload_cmd; verify_cmd; dot_cmd; check_history_cmd ]))
